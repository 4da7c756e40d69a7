package lower

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sagrelay/internal/geom"
	"sagrelay/internal/scenario"
)

// globalPRO is the reference for PRO's zone decomposition: Algorithm 6 as
// one sweep over every relay at once, with no notion of zone blocks.
func globalPRO(sc *scenario.Scenario, res *Result) (*PowerAllocation, error) {
	ctx, err := newPowerContext(sc, res)
	if err != nil {
		return nil, err
	}
	n := len(res.Relays)
	powers := make([]float64, n)
	inK := make([]bool, n)
	remaining := n
	for i := range powers {
		powers[i] = sc.PMax
		inK[i] = true
	}
	for remaining > 0 {
		changed := false
		for i := 0; i < n; i++ {
			if !inK[i] {
				continue
			}
			old := powers[i]
			powers[i] = ctx.pmin[i]
			if ctx.snrOKForRelay(i, powers) {
				inK[i] = false
				remaining--
				changed = true
			} else {
				powers[i] = old
			}
		}
		if changed || remaining == 0 {
			continue
		}
		best, bestDelta := -1, math.Inf(1)
		bestP := 0.0
		for i := 0; i < n; i++ {
			if !inK[i] {
				continue
			}
			p := ctx.psnr(i, powers)
			if p < ctx.pmin[i] {
				p = ctx.pmin[i]
			}
			if p > sc.PMax {
				p = sc.PMax
			}
			if delta := p - ctx.pmin[i]; delta < bestDelta {
				best, bestDelta, bestP = i, delta, p
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("reference PRO stuck with %d relays unresolved", remaining)
		}
		powers[best] = bestP
		inK[best] = false
		remaining--
	}
	alloc := &PowerAllocation{Powers: powers, Method: "PRO"}
	for _, p := range powers {
		alloc.Total += p
	}
	return alloc, VerifyPower(sc, res, powers)
}

// reversedRelays returns res with its relay list reversed, so the relays of
// a multi-zone result are no longer grouped in zone order.
func reversedRelays(res *Result) *Result {
	n := len(res.Relays)
	out := *res
	out.Relays = make([]Relay, n)
	for i, r := range res.Relays {
		out.Relays[n-1-i] = r
	}
	out.AssignOf = make([]int, len(res.AssignOf))
	for j, a := range res.AssignOf {
		out.AssignOf[j] = n - 1 - a
	}
	return &out
}

// requireSameBits fails unless got and want agree bit for bit on every
// power and on Total.
func requireSameBits(t *testing.T, label string, got, want *PowerAllocation) {
	t.Helper()
	if len(got.Powers) != len(want.Powers) {
		t.Fatalf("%s: %d powers, reference %d", label, len(got.Powers), len(want.Powers))
	}
	for i := range got.Powers {
		if math.Float64bits(got.Powers[i]) != math.Float64bits(want.Powers[i]) {
			t.Fatalf("%s: relay %d power %v, reference %v", label, i, got.Powers[i], want.Powers[i])
		}
	}
	if math.Float64bits(got.Total) != math.Float64bits(want.Total) {
		t.Fatalf("%s: total %v, reference %v", label, got.Total, want.Total)
	}
}

// relayPerSubscriber places one relay per subscriber at a random point of
// its distance disk, grouped by zone. The relays' coverage powers then
// differ widely, so under a strict SNR threshold the sweep has drops that
// fail and relays it must settle above their coverage power.
func relayPerSubscriber(t *testing.T, sc *scenario.Scenario, rng *rand.Rand) *Result {
	t.Helper()
	zones, err := ZonePartition(sc)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Feasible: true, Zones: zones, AssignOf: make([]int, sc.NumSS())}
	for _, zone := range zones {
		for _, j := range zone {
			ss := sc.Subscribers[j]
			r, a := 0.9*ss.DistReq*math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
			pos := geom.Pt(ss.Pos.X+r*math.Cos(a), ss.Pos.Y+r*math.Sin(a))
			res.AssignOf[j] = len(res.Relays)
			res.Relays = append(res.Relays, Relay{Pos: pos, Covers: []int{j}})
		}
	}
	return res
}

// TestPROMatchesGlobalSweep checks PRO's zone decomposition against the
// global sweep bit for bit: on seeded SAMC and IAC placements, on one relay
// per subscriber under a strict threshold (where the SNR rows bind), on each
// of those without zones and with relays not grouped by zone.
func TestPROMatchesGlobalSweep(t *testing.T) {
	ctx := context.Background()
	ilp := ILPOptions{MaxNodes: 50, TimeLimit: time.Hour, Workers: 1}
	rng := rand.New(rand.NewSource(1))
	checked, ungrouped, bound := 0, 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		sc := testScenario(t, 500, 25, seed)
		samc, err := SAMC(ctx, sc, SAMCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		iac, err := IAC(ctx, sc, ilp)
		if err != nil {
			t.Fatal(err)
		}
		strict := *sc
		strict.SNRThresholdDB = -9
		for _, c := range []struct {
			name string
			sc   *scenario.Scenario
			res  *Result
		}{{"SAMC", sc, samc}, {"IAC", sc, iac}, {"relay per subscriber", &strict, relayPerSubscriber(t, sc, rng)}} {
			if !c.res.Feasible {
				continue
			}
			noZones := *c.res
			noZones.Zones = nil
			rev := reversedRelays(c.res)
			if _, grouped := zoneBlocks(mustPowerContext(t, c.sc, rev)); !grouped {
				ungrouped++
			}
			for _, v := range []struct {
				name string
				res  *Result
			}{{"zoned", c.res}, {"no zones", &noZones}, {"reversed", rev}} {
				label := c.name + " " + v.name
				want, werr := globalPRO(c.sc, v.res)
				got, err := PRO(ctx, c.sc, v.res)
				if werr != nil || err != nil {
					// An allocation no sweep can make valid: both must say so.
					if werr == nil || err == nil {
						t.Fatalf("seed %d %s: PRO error %v, reference error %v", seed, label, err, werr)
					}
					continue
				}
				requireSameBits(t, label, got, want)
				pctx := mustPowerContext(t, c.sc, v.res)
				for i, p := range want.Powers {
					if p != pctx.pmin[i] {
						bound++
						break
					}
				}
				checked++
			}
		}
	}
	if checked == 0 || ungrouped == 0 || bound == 0 {
		t.Fatalf("checked %d allocations, %d with ungrouped relays, %d where SNR binds", checked, ungrouped, bound)
	}
}

func mustPowerContext(t *testing.T, sc *scenario.Scenario, res *Result) *powerContext {
	t.Helper()
	ctx, err := newPowerContext(sc, res)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestOptimalPowerVerifies pins fields where the LPQC as the paper writes
// it made the simplex return allocations VerifyPower rejects: on the IAC
// field relay 17 got power 0 while serving subscriber 3, and on the SAMC
// fields of Fig. 5(a) a relay's power left [0, PMax].
func TestOptimalPowerVerifies(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name     string
		side     float64
		users    int
		seed     int64
		iac      bool
		servedSS int
	}{
		{"IAC 500x500", 500, 30, 760740741943613320, true, 3},
		{"SAMC fig5a 45 users run 5", 800, 45, 1 ^ 45<<32 ^ 5, false, -1},
		{"SAMC fig5a 60 users run 2", 800, 60, 1 ^ 60<<32 ^ 2, false, -1},
	} {
		sc, err := scenario.Generate(scenario.GenConfig{FieldSide: c.side, NumSS: c.users, NumBS: 4, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		if c.iac {
			res, err = IAC(ctx, sc, ILPOptions{MaxNodes: 50, TimeLimit: time.Hour, Workers: 1})
		} else {
			res, err = SAMC(ctx, sc, SAMCOptions{})
		}
		if err != nil || !res.Feasible {
			t.Fatalf("%s: coverage feasible=%v err=%v", c.name, res != nil && res.Feasible, err)
		}
		opt, err := OptimalPower(ctx, sc, res)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := VerifyPower(sc, res, opt.Powers); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.servedSS >= 0 {
			if a := res.AssignOf[c.servedSS]; opt.Powers[a] <= 0 {
				t.Errorf("%s: relay %d serves subscriber %d at power %v", c.name, a, c.servedSS, opt.Powers[a])
			}
		}
		pro, err := PRO(ctx, sc, res)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Total > pro.Total*(1+1e-9) {
			t.Errorf("%s: LPQC optimum %v above PRO %v", c.name, opt.Total, pro.Total)
		}
	}
}

// TestPROCheckMatchesVerifyPower perturbs PRO's answers on seeded SAMC
// placements and requires the check PRO runs on its own power context to
// give the same verdict, with the same text, as VerifyPower rebuilding
// everything from scratch. One context serves every perturbation of a
// field, so a check that wrote to it would drift from VerifyPower.
func TestPROCheckMatchesVerifyPower(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2))
	var demand, sir, bounds int
	for seed := int64(1); seed <= 8; seed++ {
		sc := testScenario(t, 500, 25, seed)
		samc, err := SAMC(ctx, sc, SAMCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		strict := *sc
		strict.SNRThresholdDB = -9
		for _, c := range []struct {
			sc  *scenario.Scenario
			res *Result
		}{{sc, samc}, {&strict, relayPerSubscriber(t, sc, rng)}} {
			if !c.res.Feasible {
				continue
			}
			pro, err := PRO(ctx, c.sc, c.res)
			if err != nil {
				continue // no valid allocation exists; TestPROMatchesGlobalSweep covers it
			}
			pctx := mustPowerContext(t, c.sc, c.res)
			check := func(label string, powers []float64) error {
				t.Helper()
				got, want := pctx.verify(powers), VerifyPower(c.sc, c.res, powers)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d %s: verify says %v, VerifyPower says %v", seed, label, got, want)
				}
				return got
			}
			if err := check("PRO", pro.Powers); err != nil {
				t.Fatalf("seed %d: PRO's allocation rejected: %v", seed, err)
			}
			n := len(pro.Powers)
			for i := 0; i < n; i++ {
				// One relay below its coverage power Pc.
				p := append([]float64(nil), pro.Powers...)
				p[i] = pctx.pmin[i] * 0.99
				if err := check(fmt.Sprintf("relay %d below Pc", i), p); err != nil {
					if !strings.Contains(err.Error(), "below demand") {
						t.Fatalf("seed %d: relay %d at 0.99 Pc: %v", seed, i, err)
					}
					demand++
				} else if pctx.pmin[i] > 0 {
					t.Fatalf("seed %d: relay %d at 0.99 Pc accepted", seed, i)
				}
				// One interferer back at PMax: its neighbours' SNR may break.
				p = append(p[:0], pro.Powers...)
				p[i] = c.sc.PMax
				if err := check(fmt.Sprintf("relay %d at PMax", i), p); err != nil {
					if !strings.Contains(err.Error(), "SIR") {
						t.Fatalf("seed %d: relay %d at PMax: %v", seed, i, err)
					}
					sir++
				}
				// One relay above PMax.
				p[i] = c.sc.PMax * 1.01
				if err := check(fmt.Sprintf("relay %d above PMax", i), p); err != nil {
					bounds++
				} else {
					t.Fatalf("seed %d: relay %d above PMax accepted", seed, i)
				}
			}
			if check("short vector", pro.Powers[:n-1]) == nil {
				t.Fatalf("seed %d: short power vector accepted", seed)
			}
		}
	}
	if demand == 0 || sir == 0 || bounds == 0 {
		t.Fatalf("rejections: %d below Pc, %d from a raised interferer, %d above PMax; want each > 0", demand, sir, bounds)
	}
	t.Logf("rejections: %d below Pc, %d from a raised interferer, %d above PMax", demand, sir, bounds)
}
