// Command sagcli solves a relay deployment for a scenario and prints the
// placement as JSON.
//
// Usage:
//
//	sagcli -gen -users 30 -field 500 -save sc.json   # generate + save
//	sagcli -scenario sc.json                          # solve with SAG
//	sagcli -scenario sc.json -coverage GAC -power baseline
//	sagcli -scenario sc.json -trace-out trace.json   # dump the span tree
//	sagcli -scenario sc.json -coverage IAC -progress  # live gap meter on stderr
//	sagcli -base sc.json -delta d.json                # incremental re-solve
//	sagcli -base sc.json -delta d.json -save sc2.json # apply delta + save
//
// With -base and -delta the base scenario is solved first to warm the zone
// store of coverage placements, then the mutated scenario is solved through
// it, so unchanged zones splice their placements from cache; the reuse counts go to stderr. The
// result is byte-identical to solving the mutated scenario alone.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sagrelay/internal/core"
	"sagrelay/internal/geom"
	"sagrelay/internal/incr"
	"sagrelay/internal/milp"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
)

// output is the JSON document sagcli prints for a solved deployment.
type output struct {
	Method          string       `json:"method"`
	Feasible        bool         `json:"feasible"`
	CoverageRelays  []relayOut   `json:"coverage_relays,omitempty"`
	ConnectivityRSs []geom.Point `json:"connectivity_relays,omitempty"`
	PL              float64      `json:"coverage_power,omitempty"`
	PH              float64      `json:"connectivity_power,omitempty"`
	PTotal          float64      `json:"total_power,omitempty"`
	NumCoverage     int          `json:"num_coverage_relays"`
	NumConnectivity int          `json:"num_connectivity_relays"`
	ElapsedMillis   float64      `json:"elapsed_ms"`
	SNRThresholdDB  float64      `json:"snr_threshold_db"`
	NumSubscribers  int          `json:"num_subscribers"`
	NumBaseStations int          `json:"num_base_stations"`
}

type relayOut struct {
	Pos    geom.Point `json:"pos"`
	Power  float64    `json:"power"`
	Covers []int      `json:"covers"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sagcli:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sagcli", flag.ContinueOnError)
	var (
		scPath    = fs.String("scenario", "", "scenario JSON file to solve")
		gen       = fs.Bool("gen", false, "generate a scenario instead of solving")
		save      = fs.String("save", "", "write the generated scenario to this file")
		users     = fs.Int("users", 30, "generated subscribers")
		field     = fs.Float64("field", 500, "generated field side")
		numBS     = fs.Int("bs", 4, "generated base stations")
		snr       = fs.Float64("snr", -15, "SNR threshold (dB)")
		seed      = fs.Int64("seed", 1, "generation seed")
		coverage  = fs.String("coverage", "SAMC", "coverage method: SAMC, IAC or GAC")
		power     = fs.String("power", "green", "power stages: green, baseline or optimal")
		conn      = fs.String("connectivity", "MBMC", "connectivity method: MBMC or MUST")
		workers   = fs.Int("workers", 0, "concurrent per-zone solves (0 = all CPUs, 1 = sequential)")
		timeout   = fs.Duration("timeout", 0, "overall solve deadline, e.g. 30s (0 = unbounded)")
		progress  = fs.Bool("progress", false, "print a live convergence meter (zones done, nodes, worst B&B gap) to stderr during the solve")
		traceOut  = fs.String("trace-out", "", "write the solve's span tree as JSON to this file ('-' = stderr)")
		basePath  = fs.String("base", "", "base scenario file for -delta (defaults to -scenario)")
		deltaPath = fs.String("delta", "", "scenario delta JSON to apply to the base scenario")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gen {
		sc, err := scenario.Generate(scenario.GenConfig{
			FieldSide: *field, NumSS: *users, NumBS: *numBS, SNRdB: *snr, Seed: *seed,
		})
		if err != nil {
			return err
		}
		if *save == "" {
			return fmt.Errorf("-gen requires -save <file>")
		}
		if err := scenario.Save(sc, *save); err != nil {
			return err
		}
		fmt.Println("wrote", *save)
		return nil
	}
	var sc, warm *scenario.Scenario
	switch {
	case *deltaPath != "":
		bp := *basePath
		if bp == "" {
			bp = *scPath
		}
		if bp == "" {
			return fmt.Errorf("-delta requires -base (or -scenario) <file>")
		}
		base, err := scenario.Load(bp)
		if err != nil {
			return err
		}
		d, err := scenario.LoadDelta(*deltaPath)
		if err != nil {
			return err
		}
		mutated, err := d.Apply(base)
		if err != nil {
			return err
		}
		if *save != "" {
			if err := scenario.Save(mutated, *save); err != nil {
				return err
			}
			fmt.Println("wrote", *save)
			return nil
		}
		sc, warm = mutated, base
	case *scPath != "":
		loaded, err := scenario.Load(*scPath)
		if err != nil {
			return err
		}
		sc = loaded
	default:
		fs.Usage()
		return fmt.Errorf("missing -scenario (or -gen)")
	}
	cfg, err := buildConfig(*coverage, *power, *conn)
	if err != nil {
		return err
	}
	cfg.Workers = *workers
	ctx, cancel := solveContext(*timeout)
	defer cancel()

	// Incremental mode: solve the base first through a fresh zone store,
	// then let the mutated solve splice every unchanged zone's placement;
	// power and connectivity always run.
	var reused0, resolved0 int64
	if warm != nil {
		incr.NewStores(0).Wire(&cfg)
		if _, err := core.Run(ctx, warm, cfg); err != nil {
			return fmt.Errorf("base solve: %w", err)
		}
		reused0, resolved0 = incr.ZonesReused(), incr.ZonesResolved()
	}
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace("sagcli")
		ctx = obs.WithTrace(ctx, tr)
	}
	// Arm the meter after the warm base solve so it only narrates the solve
	// whose result is printed. Progress is observational: the placement is
	// byte-identical with or without it.
	var meter *progressMeter
	if *progress {
		meter = newProgressMeter(os.Stderr)
		ctx = milp.WithProgress(ctx, meter.observe)
	}
	sol, err := core.Run(ctx, sc, cfg)
	if meter != nil {
		meter.finish()
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("solve abandoned: deadline of %v exceeded", *timeout)
		}
		return err
	}
	if tr != nil {
		tr.Finish()
		if err := writeTrace(*traceOut, tr); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	if warm != nil {
		fmt.Fprintf(os.Stderr, "sagcli: incremental: %d zones reused, %d re-solved\n",
			incr.ZonesReused()-reused0, incr.ZonesResolved()-resolved0)
	}
	out := output{
		Method:          sol.Method,
		Feasible:        sol.Feasible,
		ElapsedMillis:   float64(sol.Elapsed.Microseconds()) / 1000,
		SNRThresholdDB:  sc.SNRThresholdDB,
		NumSubscribers:  sc.NumSS(),
		NumBaseStations: len(sc.BaseStations),
	}
	if sol.Feasible {
		out.PL, out.PH, out.PTotal = sol.PL, sol.PH, sol.PTotal
		out.NumCoverage = sol.Coverage.NumRelays()
		out.NumConnectivity = sol.Connectivity.NumRelays()
		for i, r := range sol.Coverage.Relays {
			out.CoverageRelays = append(out.CoverageRelays, relayOut{
				Pos:    r.Pos,
				Power:  sol.CoveragePower.Powers[i],
				Covers: r.Covers,
			})
		}
		for _, r := range sol.Connectivity.Relays {
			out.ConnectivityRSs = append(out.ConnectivityRSs, r.Pos)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// writeTrace dumps a finished trace as indented JSON; "-" writes to stderr
// so the span tree never interleaves with the result document on stdout.
func writeTrace(path string, tr *obs.Trace) error {
	doc, err := json.MarshalIndent(tr.Doc(), "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if path == "-" {
		_, err = os.Stderr.Write(doc)
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}

// solveContext bounds the solve by the -timeout flag; 0 means no deadline.
func solveContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), timeout)
}

func buildConfig(coverage, power, conn string) (core.Config, error) {
	var cfg core.Config
	switch strings.ToUpper(coverage) {
	case "SAMC":
		cfg.Coverage = core.CoverSAMC
	case "IAC":
		cfg.Coverage = core.CoverIAC
	case "GAC":
		cfg.Coverage = core.CoverGAC
	default:
		return cfg, fmt.Errorf("unknown coverage method %q", coverage)
	}
	switch strings.ToLower(power) {
	case "green":
		cfg.CoveragePower, cfg.ConnectivityPower = core.PowerGreen, core.PowerGreen
	case "baseline":
		cfg.CoveragePower, cfg.ConnectivityPower = core.PowerBaseline, core.PowerBaseline
	case "optimal":
		cfg.CoveragePower, cfg.ConnectivityPower = core.PowerOptimal, core.PowerGreen
	default:
		return cfg, fmt.Errorf("unknown power stage %q", power)
	}
	switch strings.ToUpper(conn) {
	case "MBMC":
		cfg.Connectivity = core.ConnMBMC
	case "MUST":
		cfg.Connectivity = core.ConnMUST
	default:
		return cfg, fmt.Errorf("unknown connectivity method %q", conn)
	}
	return cfg, nil
}
