//go:build faultinject

// Chaos gate: enumerate every registered fault-injection site and storm the
// solve service with each failure kind armed. The invariants are blunt on
// purpose — every job reaches a terminal state, the process never dies, and
// the server still solves cleanly once the plan is disarmed. Run with
//
//	go test -race -tags faultinject -run Chaos ./internal/serve/
package serve

import (
	"fmt"
	"testing"
	"time"

	"sagrelay/internal/fault"
	"sagrelay/internal/scenario"
)

// chaosScenario generates a distinct tiny instance per seed so chaos jobs
// never collapse into cache hits (the cache would shield sites from fire).
func chaosScenario(t *testing.T, seed int64) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Generate(scenario.GenConfig{
		FieldSide: 300, NumSS: 8, NumBS: 2, SNRdB: -15, Seed: seed,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return sc
}

func TestChaosEverySiteEveryKind(t *testing.T) {
	sites := fault.Sites()
	if len(sites) < 4 {
		t.Fatalf("only %d registered fault sites %v, expected the solve stack to register at least 4", len(sites), sites)
	}
	t.Logf("chaos over sites %v", sites)

	const jobsPerArm = 3
	for _, site := range sites {
		for _, kind := range []string{"error", "panic", "delay"} {
			t.Run(site+"/"+kind, func(t *testing.T) {
				s := newTestServer(t, Options{Workers: 2})
				armFault(t, fmt.Sprintf("%s=%s:d=1ms", site, kind))

				jobs := make([]*Job, 0, jobsPerArm)
				for i := 0; i < jobsPerArm; i++ {
					job, err := s.Submit(SolveRequest{
						Scenario: chaosScenario(t, int64(i+1)),
						Options:  SolveOptions{Coverage: "GAC"},
					})
					if err != nil {
						t.Fatalf("submit %d under %s=%s: %v", i, site, kind, err)
					}
					jobs = append(jobs, job)
				}
				for i, job := range jobs {
					waitDone(t, job, 2*time.Minute)
					if st := job.status(); !job.terminal() {
						t.Errorf("job %d non-terminal under %s=%s: %v", i, site, kind, st.State)
					}
				}
				if fault.Fired(site) == 0 {
					t.Errorf("armed %s=%s but the site never fired", site, kind)
				}

				// The wounded server must still serve an untainted solve.
				fault.Disable()
				clean, err := s.Submit(SolveRequest{
					Scenario: chaosScenario(t, 99),
					Options:  SolveOptions{Coverage: "GAC"},
				})
				if err != nil {
					t.Fatalf("server rejects work after %s=%s chaos: %v", site, kind, err)
				}
				waitDone(t, clean, 2*time.Minute)
				if state := clean.status().State; state != StateDone {
					t.Fatalf("clean job after %s=%s chaos finished %v (err %q)",
						site, kind, state, clean.status().Error)
				}
			})
		}
	}
}

func TestChaosAllSitesAtOnce(t *testing.T) {
	// Arm every site with a probabilistic mix of all kinds simultaneously
	// and pour jobs through: the worst realistic storm. Determinism of the
	// per-site rng streams makes a given seed reproducible.
	sites := fault.Sites()
	spec := ""
	for i, site := range sites {
		if i > 0 {
			spec += ","
		}
		switch i % 3 {
		case 0:
			spec += site + "=error:p=0.3"
		case 1:
			spec += site + "=panic:p=0.2"
		default:
			spec += site + "=delay:p=0.5:d=1ms"
		}
	}
	s := newTestServer(t, Options{Workers: 4})
	armFault(t, spec)
	t.Logf("storm plan: %s", spec)

	const n = 12
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		job, err := s.Submit(SolveRequest{
			Scenario: chaosScenario(t, int64(i+1)),
			Options:  SolveOptions{Coverage: "GAC"},
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, job)
	}
	for i, job := range jobs {
		waitDone(t, job, 2*time.Minute)
		if !job.terminal() {
			t.Errorf("job %d not terminal: %v", i, job.status().State)
		}
	}
	if fault.FiredTotal() == 0 {
		t.Error("storm plan never fired")
	}

	fault.Disable()
	clean, err := s.Submit(SolveRequest{Scenario: chaosScenario(t, 99), Options: SolveOptions{Coverage: "GAC"}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, clean, 2*time.Minute)
	if state := clean.status().State; state != StateDone {
		t.Fatalf("clean job after the storm finished %v (err %q)", state, clean.status().Error)
	}
	t.Logf("storm: %d faults fired, %d panics recovered, all %d jobs terminal",
		fault.FiredTotal(), fault.RecoveredPanics(), n)
}
