// Command bench is the repository's benchmark: four seeded workloads that
// measure the solver stack and the solve service end to end, with a traced
// run that breaks the time down by layer. BENCHMARK.json at the repository
// root declares the workloads and metrics; README.md documents them.
//
// One run prints a report line and, last, the result line with the declared
// metrics:
//
//	bash bench/run.sh --workload gac-sweep --seed 1 --seconds 20 --trace 0
//
// A set interleaves runs of every workload in child processes, and -compare
// judges two sets against the declared bounds:
//
//	bash bench/run.sh -set A.json -k 5 -seed 1
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	if plan := os.Getenv(loadgenEnv); plan != "" {
		os.Exit(loadgenMain(plan, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errWrong marks a run that completed but failed an answer check.
var errWrong = errors.New("failed answer checks")

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run once: gac-sweep, iac-zones, sag-heuristic or serve-open")
		seed    = fs.Int64("seed", 1, "seed every input is drawn from (in a set: the first run's seed)")
		secs    = fs.Float64("seconds", 0, "measured seconds per run (0 means BENCHMARK.json's run_seconds)")
		trace   = fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics instead of the end-to-end ones")
		setPath = fs.String("set", "", "run a set of runs in child processes and add them to this file")
		k       = fs.Int("k", 5, "untraced runs per workload in a set")
		traces  = fs.Int("traces", 1, "traced runs per workload in a set")
		compare = fs.Bool("compare", false, "compare two set files given as arguments: -compare A.json B.json")
		golden  = fs.String("write-golden", "", "recompute the answer-quality golden values into this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	m, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *secs <= 0 {
		*secs = float64(m.RunSeconds)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two set files")
			return 2
		}
		err = compareSets(stdout, m, fs.Arg(0), fs.Arg(1))
	case *setPath != "":
		err = runSet(ctx, stderr, *setPath, *seed, *secs, *k, *traces)
	case *golden != "":
		// One op: a batch run stops as soon as its quality prefix is solved.
		err = writeGolden(*golden, func(w workload, s int64) (*report, error) {
			return w.run(ctx, runOpts{seed: s, seconds: *secs, ops: 1, setups: 1})
		})
	default:
		err = runOnce(ctx, stdout, stderr, m, *name, runOpts{
			seed: *seed, seconds: *secs, trace: *trace == 1, setups: 3, golden: true,
		})
	}
	switch {
	case errors.Is(err, errWrong):
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	case err != nil:
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return 0
}

// measure runs one workload and adds the process's peak memory.
func measure(ctx context.Context, w workload, o runOpts) (*report, error) {
	rep, err := w.run(ctx, o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	mb, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.set("mem_peak_mb", "MB", mb)
	return rep, nil
}

// runOnce runs one workload and prints its report line and result line.
func runOnce(ctx context.Context, stdout, stderr io.Writer, m *manifest, name string, o runOpts) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	rep, err := measure(ctx, w, o)
	if err != nil {
		return err
	}
	res, err := resultFor(rep, m)
	if err != nil {
		return err
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stderr, "bench: %s: %s\n", name, p)
	}
	for _, line := range []any{rep, res} {
		data, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", data)
	}
	if !res.Correct {
		return fmt.Errorf("%s: %w (%d wrong answers)", name, errWrong, rep.Wrong)
	}
	return nil
}
