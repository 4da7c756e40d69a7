package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
)

// goldenJSON holds relays_total and power_total per workload and seed, as
// the commit that defined the benchmark computed them. Every workload's
// answers are deterministic, so a run on one of these seeds must match
// exactly; regenerate with -write-golden only when a change is meant to
// alter answers.
//
//go:embed golden.json
var goldenJSON []byte

type goldenEntry struct {
	Relays int     `json:"relays_total"`
	Power  float64 `json:"power_total"`
}

// goldenSeeds are the seeds -write-golden records.
var goldenSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

func loadGolden() (map[string]map[string]goldenEntry, error) {
	g := map[string]map[string]goldenEntry{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("parse golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares a run's answer quality with the recorded values for
// its workload and seed, when enabled and the seed has a record.
func checkGolden(r *report, workload string, seed int64, enabled bool, relays int, power float64) {
	if !enabled {
		return
	}
	g, err := loadGolden()
	if err != nil {
		r.wrong("%v", err)
		return
	}
	want, ok := g[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return
	}
	r.set("golden_checked", "count", 1)
	if relays != want.Relays || math.Abs(power-want.Power) > 1e-9*math.Max(1, math.Abs(want.Power)) {
		r.wrong("seed %d: relays_total %d, power_total %v; golden.json records %d and %v",
			seed, relays, power, want.Relays, want.Power)
	}
}

// writeGolden runs every workload on goldenSeeds with the standard sizes
// and writes their answer quality to path.
func writeGolden(path string, run func(w workload, seed int64) (*report, error)) error {
	g := map[string]map[string]goldenEntry{}
	for _, w := range workloads {
		g[w.name] = map[string]goldenEntry{}
		for _, seed := range goldenSeeds {
			rep, err := run(w, seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if rep.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d failed operations: %v", w.name, seed, rep.Failed, rep.Problems)
			}
			g[w.name][strconv.FormatInt(seed, 10)] = goldenEntry{
				Relays: int(rep.Metrics["relays_total"].Value),
				Power:  rep.Metrics["power_total"].Value,
			}
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
