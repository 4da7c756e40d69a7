package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"sagrelay/internal/core"
	"sagrelay/internal/lower"
	"sagrelay/internal/scenario"
	"sagrelay/internal/upper"
)

// numBS is the base station count used throughout the evaluation except
// Table II (which sweeps it); Fig. 4(c) states 4 base stations.
const numBS = 4

// seedFor derives a deterministic per-task seed. The data-point key x and
// the repetition index occupy disjoint bit ranges (x in bits 32+, run in
// the low 32 bits), so no run count below 2^32 can ever alias an adjacent
// data point's seed stream — unlike the previous base + x*1009 + run
// scheme, where run >= 1009 collided with data point x+1.
func seedFor(base int64, x, run int) int64 {
	return base ^ (int64(x) << 32) ^ int64(run)
}

// ints returns {from, from+step, ..., <= to}.
func ints(from, to, step int) []int {
	var out []int
	for v := from; v <= to; v += step {
		out = append(out, v)
	}
	return out
}

// genScenario builds one evaluation workload (Section IV-A): uniform
// subscribers/base stations, distance requirements in [30,40].
func genScenario(side float64, users int, snrDB float64, seed int64) (*scenario.Scenario, error) {
	return scenario.Generate(scenario.GenConfig{
		FieldSide: side,
		NumSS:     users,
		NumBS:     numBS,
		SNRdB:     snrDB,
		Seed:      seed,
	})
}

// coverageCount runs a coverage method and returns the relay count, or NaN
// when infeasible.
func coverageCount(ctx context.Context, sc *scenario.Scenario, method core.CoverageMethod, ilp lower.ILPOptions) (float64, error) {
	res, err := runCoverage(ctx, sc, method, ilp)
	if err != nil {
		return 0, err
	}
	if !res.Feasible {
		return math.NaN(), nil
	}
	return float64(res.NumRelays()), nil
}

func runCoverage(ctx context.Context, sc *scenario.Scenario, method core.CoverageMethod, ilp lower.ILPOptions) (*lower.Result, error) {
	switch method {
	case core.CoverSAMC:
		return lower.SAMC(ctx, sc, lower.SAMCOptions{})
	case core.CoverIAC:
		return lower.IAC(ctx, sc, ilp)
	case core.CoverGAC:
		return lower.GAC(ctx, sc, ilp)
	default:
		return nil, fmt.Errorf("experiment: unknown coverage method %v", method)
	}
}

// fig3Coverage is the shared driver for Figs. 3(a)-3(c): coverage relay
// counts vs user count for IAC, GAC and SAMC. The (point, run) grid fans
// out over cfg.Workers; every task derives its own seed and writes into
// its (point, method, run) slot, so the table is identical at any worker
// count.
func fig3Coverage(id, title string, side float64, users []int, snrDB float64, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID: id, Title: title,
		XLabel:  "Number of Users",
		Columns: []string{"IAC", "GAC", "SAMC"},
	}
	methods := []core.CoverageMethod{core.CoverIAC, core.CoverGAC, core.CoverSAMC}
	samples := nanGrid(len(users), len(methods), cfg.Runs)
	err := cfg.forEachCell(len(users), func(pi, r int) error {
		n := users[pi]
		sc, err := genScenario(side, n, snrDB, seedFor(cfg.Seed, n, r))
		if err != nil {
			return err
		}
		for m, method := range methods {
			v, err := coverageCount(cfg.ctx(), sc, method, cfg.ILP)
			if err != nil {
				return err
			}
			samples[pi][m][r] = v
		}
		return nil
	}, func(pi int) {
		cfg.progress("%s: users=%d done\n", id, users[pi])
	})
	if err != nil {
		return nil, err
	}
	for pi, n := range users {
		if err := t.AddRow(float64(n), mean(samples[pi][0]), mean(samples[pi][1]), mean(samples[pi][2])); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig3a reproduces Fig. 3(a): 500x500 field, SNR -15 dB, 15-50 users.
func Fig3a(cfg Config) (*Table, error) {
	return fig3Coverage("fig3a", "# coverage RSs, 500x500, SNR=-15dB", 500, ints(15, 50, 5), -15, cfg)
}

// Fig3b reproduces Fig. 3(b): 800x800 field, SNR -15 dB, 20-70 users.
func Fig3b(cfg Config) (*Table, error) {
	return fig3Coverage("fig3b", "# coverage RSs, 800x800, SNR=-15dB", 800, ints(20, 70, 10), -15, cfg)
}

// Fig3c reproduces Fig. 3(c): 800x800 field, SNR -40 dB, 50-70 users (the
// regime where IAC/GAC become feasible again).
func Fig3c(cfg Config) (*Table, error) {
	return fig3Coverage("fig3c", "# coverage RSs, 800x800, SNR=-40dB", 800, ints(50, 70, 5), -40, cfg)
}

// Fig3d reproduces Fig. 3(d): coverage relay counts vs SNR threshold
// (-14 to -10 dB) at 30 users on 500x500; IAC drops out first as the
// threshold rises (Section IV-B).
func Fig3d(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID: "fig3d", Title: "# coverage RSs vs SNR threshold, 500x500, SS=30",
		XLabel:  "SNR (dB)",
		Columns: []string{"IAC", "GAC", "SAMC"},
	}
	methods := []core.CoverageMethod{core.CoverIAC, core.CoverGAC, core.CoverSAMC}
	var snrs []float64
	for snr := -14.0; snr <= -10.0+1e-9; snr += 0.5 {
		snrs = append(snrs, snr)
	}
	samples := nanGrid(len(snrs), len(methods), cfg.Runs)
	err := cfg.forEachCell(len(snrs), func(pi, r int) error {
		sc, err := genScenario(500, 30, snrs[pi], seedFor(cfg.Seed, 30, r))
		if err != nil {
			return err
		}
		for m, method := range methods {
			v, err := coverageCount(cfg.ctx(), sc, method, cfg.ILP)
			if err != nil {
				return err
			}
			samples[pi][m][r] = v
		}
		return nil
	}, func(pi int) {
		cfg.progress("fig3d: snr=%.1f done\n", snrs[pi])
	})
	if err != nil {
		return nil, err
	}
	for pi, snr := range snrs {
		if err := t.AddRow(snr, mean(samples[pi][0]), mean(samples[pi][1]), mean(samples[pi][2])); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig3e reproduces Fig. 3(e): coverage relay counts vs GAC grid size
// (13-20) at 30 users, SNR -11.55 dB, 500x500. IAC and SAMC do not depend
// on the grid; their flat series are plotted for reference as in the paper.
func Fig3e(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	const snr = -11.55
	t := &Table{
		ID: "fig3e", Title: "# coverage RSs vs grid size, 500x500, SNR=-11.55dB, SS=30",
		XLabel:  "Grid Size",
		Columns: []string{"IAC", "GAC", "SAMC"},
	}
	// Grid-independent baselines, one sample per run.
	base := nanGrid(1, 2, cfg.Runs) // [0]: IAC, [1]: SAMC
	err := cfg.forEachCell(1, func(_, r int) error {
		sc, err := genScenario(500, 30, snr, seedFor(cfg.Seed, 30, r))
		if err != nil {
			return err
		}
		v, err := coverageCount(cfg.ctx(), sc, core.CoverIAC, cfg.ILP)
		if err != nil {
			return err
		}
		base[0][0][r] = v
		v, err = coverageCount(cfg.ctx(), sc, core.CoverSAMC, cfg.ILP)
		if err != nil {
			return err
		}
		base[0][1][r] = v
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	iacMean, samcMean := mean(base[0][0]), mean(base[0][1])
	grids := ints(13, 20, 1)
	samples := nanGrid(len(grids), 1, cfg.Runs)
	err = cfg.forEachCell(len(grids), func(pi, r int) error {
		sc, err := genScenario(500, 30, snr, seedFor(cfg.Seed, 30, r))
		if err != nil {
			return err
		}
		ilp := cfg.ILP
		ilp.GridSize = float64(grids[pi])
		v, err := coverageCount(cfg.ctx(), sc, core.CoverGAC, ilp)
		if err != nil {
			return err
		}
		samples[pi][0][r] = v
		return nil
	}, func(pi int) {
		cfg.progress("fig3e: grid=%d done\n", grids[pi])
	})
	if err != nil {
		return nil, err
	}
	for pi, grid := range grids {
		if err := t.AddRow(float64(grid), iacMean, mean(samples[pi][0]), samcMean); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// figPRO is the shared driver for Figs. 4(a) and 5(a): lower-tier power
// cost of the max-power baseline, PRO, and the LPQC optimum on the SAMC
// placement. Infeasible repetitions stay NaN and drop out of the mean.
func figPRO(id, title string, side float64, users []int, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID: id, Title: title,
		XLabel:  "Number of Users",
		Columns: []string{"baseline", "PRO", "optimal"},
	}
	samples := nanGrid(len(users), 3, cfg.Runs)
	err := cfg.forEachCell(len(users), func(pi, r int) error {
		n := users[pi]
		sc, err := genScenario(side, n, -15, seedFor(cfg.Seed, n, r))
		if err != nil {
			return err
		}
		res, err := lower.SAMC(cfg.ctx(), sc, lower.SAMCOptions{})
		if err != nil {
			return err
		}
		if !res.Feasible {
			return nil
		}
		samples[pi][0][r] = lower.BaselinePower(sc, res).Total
		pro, err := lower.PRO(cfg.ctx(), sc, res)
		if err != nil {
			return err
		}
		samples[pi][1][r] = pro.Total
		opt, err := lower.OptimalPower(cfg.ctx(), sc, res)
		if err != nil {
			return err
		}
		samples[pi][2][r] = opt.Total
		return nil
	}, func(pi int) {
		cfg.progress("%s: users=%d done\n", id, users[pi])
	})
	if err != nil {
		return nil, err
	}
	for pi, n := range users {
		if err := t.AddRow(float64(n), mean(samples[pi][0]), mean(samples[pi][1]), mean(samples[pi][2])); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig4a reproduces Fig. 4(a): PRO power cost on the 500x500 field.
func Fig4a(cfg Config) (*Table, error) {
	return figPRO("fig4a", "coverage power cost, 500x500, SNR=-15dB", 500, ints(5, 50, 5), cfg)
}

// Fig5a reproduces Fig. 5(a): PRO power cost on the 800x800 field.
func Fig5a(cfg Config) (*Table, error) {
	return figPRO("fig5a", "coverage power cost, 800x800, SNR=-15dB", 800, ints(20, 70, 10), cfg)
}

// figRuntime is the shared driver for Figs. 4(b) and 5(b): wall-clock
// running time (milliseconds) of SAMC, IAC and GAC. Each (point, run) task
// times its three solves back-to-back on one goroutine; with Workers > 1
// concurrent tasks share the machine, so absolute milliseconds are best
// measured at Workers=1 while the relative ordering survives any worker
// count.
func figRuntime(id, title string, side float64, users []int, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID: id, Title: title,
		XLabel:  "Number of Users",
		Columns: []string{"SAMC", "IAC", "GAC"},
	}
	methods := []core.CoverageMethod{core.CoverSAMC, core.CoverIAC, core.CoverGAC}
	samples := nanGrid(len(users), len(methods), cfg.Runs)
	err := cfg.forEachCell(len(users), func(pi, r int) error {
		n := users[pi]
		sc, err := genScenario(side, n, -15, seedFor(cfg.Seed, n, r))
		if err != nil {
			return err
		}
		for m, method := range methods {
			start := time.Now()
			if _, err := runCoverage(cfg.ctx(), sc, method, cfg.ILP); err != nil {
				return err
			}
			samples[pi][m][r] = float64(time.Since(start).Microseconds()) / 1000.0
		}
		return nil
	}, func(pi int) {
		cfg.progress("%s: users=%d done\n", id, users[pi])
	})
	if err != nil {
		return nil, err
	}
	for pi, n := range users {
		if err := t.AddRow(float64(n), mean(samples[pi][0]), mean(samples[pi][1]), mean(samples[pi][2])); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig4b reproduces Fig. 4(b): running times on the 500x500 field.
func Fig4b(cfg Config) (*Table, error) {
	return figRuntime("fig4b", "running time (ms), 500x500, SNR=-15dB", 500, ints(5, 50, 5), cfg)
}

// Fig5b reproduces Fig. 5(b): running times on the 800x800 field.
func Fig5b(cfg Config) (*Table, error) {
	return figRuntime("fig5b", "running time (ms), 800x800, SNR=-15dB", 800, ints(20, 70, 10), cfg)
}

// figConnectivity is the shared driver for Figs. 4(c) and 5(c): the number
// of connectivity relays when every coverage relay is forced to one of the
// four base stations (MUST, the scheme of [1]) versus attaching to the
// nearest (MBMC).
func figConnectivity(id, title string, side float64, users []int, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID: id, Title: title,
		XLabel: "Number of Users",
		Columns: []string{
			"connect to BS1", "connect to BS2", "connect to BS3", "connect to BS4",
			"connect to optimal BS",
		},
	}
	samples := nanGrid(len(users), numBS+1, cfg.Runs)
	err := cfg.forEachCell(len(users), func(pi, r int) error {
		n := users[pi]
		sc, err := genScenario(side, n, -15, seedFor(cfg.Seed, n, r))
		if err != nil {
			return err
		}
		cover, err := lower.SAMC(cfg.ctx(), sc, lower.SAMCOptions{})
		if err != nil {
			return err
		}
		if !cover.Feasible {
			return nil
		}
		for b := 0; b < numBS; b++ {
			must, err := upper.MUST(cfg.ctx(), sc, cover, b)
			if err != nil {
				return err
			}
			samples[pi][b][r] = float64(must.NumRelays())
		}
		mbmc, err := upper.MBMC(cfg.ctx(), sc, cover)
		if err != nil {
			return err
		}
		samples[pi][numBS][r] = float64(mbmc.NumRelays())
		return nil
	}, func(pi int) {
		cfg.progress("%s: users=%d done\n", id, users[pi])
	})
	if err != nil {
		return nil, err
	}
	for pi, n := range users {
		vals := make([]float64, numBS+1)
		for i := range vals {
			vals[i] = mean(samples[pi][i])
		}
		if err := t.AddRow(float64(n), vals...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig4c reproduces Fig. 4(c): connectivity relay counts on 500x500.
func Fig4c(cfg Config) (*Table, error) {
	return figConnectivity("fig4c", "# connectivity RSs, 500x500, SNR=-15dB", 500, ints(5, 50, 5), cfg)
}

// Fig5c reproduces Fig. 5(c): connectivity relay counts on 800x800.
func Fig5c(cfg Config) (*Table, error) {
	return figConnectivity("fig5c", "# connectivity RSs, 800x800, SNR=-15dB", 800, ints(20, 70, 10), cfg)
}

// figUCPO is the shared driver for Figs. 4(d) and 5(d): upper-tier power
// cost of the max-power baseline versus UCPO on the SAMC+MBMC deployment.
func figUCPO(id, title string, side float64, users []int, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID: id, Title: title,
		XLabel:  "Number of Users",
		Columns: []string{"baseline", "UCPO"},
	}
	samples := nanGrid(len(users), 2, cfg.Runs)
	err := cfg.forEachCell(len(users), func(pi, r int) error {
		n := users[pi]
		sc, err := genScenario(side, n, -15, seedFor(cfg.Seed, n, r))
		if err != nil {
			return err
		}
		cover, err := lower.SAMC(cfg.ctx(), sc, lower.SAMCOptions{})
		if err != nil {
			return err
		}
		if !cover.Feasible {
			return nil
		}
		conn, err := upper.MBMC(cfg.ctx(), sc, cover)
		if err != nil {
			return err
		}
		samples[pi][0][r] = upper.BaselinePower(sc, conn).Total
		ucpo, err := upper.UCPO(cfg.ctx(), sc, cover, conn)
		if err != nil {
			return err
		}
		samples[pi][1][r] = ucpo.Total
		return nil
	}, func(pi int) {
		cfg.progress("%s: users=%d done\n", id, users[pi])
	})
	if err != nil {
		return nil, err
	}
	for pi, n := range users {
		if err := t.AddRow(float64(n), mean(samples[pi][0]), mean(samples[pi][1])); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig4d reproduces Fig. 4(d): UCPO power cost on 500x500.
func Fig4d(cfg Config) (*Table, error) {
	return figUCPO("fig4d", "connectivity power cost, 500x500, SNR=-15dB", 500, ints(5, 50, 5), cfg)
}

// Fig5d reproduces Fig. 5(d): UCPO power cost on 800x800.
func Fig5d(cfg Config) (*Table, error) {
	return figUCPO("fig5d", "connectivity power cost, 800x800, SNR=-15dB", 800, ints(20, 70, 10), cfg)
}

// fig7Total is the shared driver for Figs. 7(a)-(c): total power of SAG
// versus the X+DARP baselines ([1]'s upstream scheme: single base station,
// maximum power everywhere).
func fig7Total(id, title string, side float64, users []int, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID: id, Title: title,
		XLabel:  "Number of Users",
		Columns: []string{"SAG", "SAMC+DARP", "IAC+DARP", "GAC+DARP"},
	}
	samples := nanGrid(len(users), 4, cfg.Runs)
	err := cfg.forEachCell(len(users), func(pi, r int) error {
		n := users[pi]
		sc, err := genScenario(side, n, -15, seedFor(cfg.Seed, n, r))
		if err != nil {
			return err
		}
		pcfg := core.Config{ILP: cfg.ILP}
		sag, err := core.SAG(cfg.ctx(), sc, pcfg)
		if err != nil {
			return err
		}
		samples[pi][0][r] = totalOrNaN(sag)
		for i, m := range []core.CoverageMethod{core.CoverSAMC, core.CoverIAC, core.CoverGAC} {
			darp, err := core.DARP(cfg.ctx(), sc, m, pcfg)
			if err != nil {
				return err
			}
			samples[pi][i+1][r] = totalOrNaN(darp)
		}
		return nil
	}, func(pi int) {
		cfg.progress("%s: users=%d done\n", id, users[pi])
	})
	if err != nil {
		return nil, err
	}
	for pi, n := range users {
		if err := t.AddRow(float64(n), mean(samples[pi][0]), mean(samples[pi][1]), mean(samples[pi][2]), mean(samples[pi][3])); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func totalOrNaN(s *core.Solution) float64 {
	if !s.Feasible {
		return math.NaN()
	}
	return s.PTotal
}

// Fig7a reproduces Fig. 7(a): total power on the 300x300 field.
func Fig7a(cfg Config) (*Table, error) {
	return fig7Total("fig7a", "total power, 300x300, SNR=-15dB", 300, ints(5, 40, 5), cfg)
}

// Fig7b reproduces Fig. 7(b): total power on the 500x500 field.
func Fig7b(cfg Config) (*Table, error) {
	return fig7Total("fig7b", "total power, 500x500, SNR=-15dB", 500, ints(5, 50, 5), cfg)
}

// Fig7c reproduces Fig. 7(c): total power on the 800x800 field.
func Fig7c(cfg Config) (*Table, error) {
	return fig7Total("fig7c", "total power, 800x800, SNR=-15dB", 800, ints(20, 70, 10), cfg)
}

// Table2 reproduces Table II: connectivity relay counts of MUST (per fixed
// base station) versus MBMC as the number of base stations grows from 1 to
// 4, at 30 subscribers, SNR -15 dB, 500x500.
func Table2(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID: "table2", Title: "MBMC vs MUST, 500x500, SS=30, SNR=-15dB",
		XLabel:  "BS",
		Columns: []string{"MUST BS1", "MUST BS2", "MUST BS3", "MUST BS4", "MBMC"},
	}
	const points = 4 // nbs = 1..4
	samples := nanGrid(points, 5, cfg.Runs)
	err := cfg.forEachCell(points, func(pi, r int) error {
		nbs := pi + 1
		sc, err := scenario.Generate(scenario.GenConfig{
			FieldSide: 500, NumSS: 30, NumBS: nbs, SNRdB: -15,
			Seed: seedFor(cfg.Seed, 30*nbs, r),
		})
		if err != nil {
			return err
		}
		cover, err := lower.SAMC(cfg.ctx(), sc, lower.SAMCOptions{})
		if err != nil {
			return err
		}
		if !cover.Feasible {
			return nil
		}
		for b := 0; b < nbs; b++ {
			must, err := upper.MUST(cfg.ctx(), sc, cover, b)
			if err != nil {
				return err
			}
			samples[pi][b][r] = float64(must.NumRelays())
		}
		mbmc, err := upper.MBMC(cfg.ctx(), sc, cover)
		if err != nil {
			return err
		}
		samples[pi][4][r] = float64(mbmc.NumRelays())
		return nil
	}, func(pi int) {
		cfg.progress("table2: nbs=%d done\n", pi+1)
	})
	if err != nil {
		return nil, err
	}
	for pi := 0; pi < points; pi++ {
		vals := make([]float64, 5)
		for i := range vals {
			vals[i] = mean(samples[pi][i])
		}
		if err := t.AddRow(float64(pi+1), vals...); err != nil {
			return nil, err
		}
	}
	return t, nil
}
