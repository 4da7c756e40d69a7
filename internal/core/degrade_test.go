package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sagrelay/internal/fault"
	"sagrelay/internal/lower"
	"sagrelay/internal/scenario"
)

func degradeScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Generate(scenario.GenConfig{
		FieldSide: 300, NumSS: 8, NumBS: 2, SNRdB: -15, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// armFault installs a fault plan for the test and disarms it at cleanup.
func armFault(t *testing.T, spec string) {
	t.Helper()
	if err := fault.EnableSpec(spec, 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)
}

func TestDegradeFallsBackToSAMC(t *testing.T) {
	sc := degradeScenario(t)
	armFault(t, "milp.node=error") // every B&B solve fails -> GAC cannot succeed
	cfg := Config{Coverage: CoverGAC, Degrade: true, RetryBackoff: time.Millisecond}

	retriesBefore, fallbacksBefore := TotalRetries(), TotalFallbacks()
	sol, err := Run(context.Background(), sc, cfg)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if !sol.Degraded {
		t.Fatal("solution not marked Degraded after coverage fallback")
	}
	if !strings.Contains(sol.DegradedReason, "GAC -> SAMC") {
		t.Fatalf("DegradedReason = %q, want mention of GAC -> SAMC", sol.DegradedReason)
	}
	if !sol.Feasible {
		t.Fatal("degraded solution infeasible; SAMC should cover this scenario")
	}
	if err := sol.Coverage.Verify(sc, true); err != nil {
		t.Fatalf("degraded coverage does not verify: %v", err)
	}
	if TotalRetries() <= retriesBefore {
		t.Fatal("TotalRetries did not increase")
	}
	if TotalFallbacks() <= fallbacksBefore {
		t.Fatal("TotalFallbacks did not increase")
	}
}

func TestDegradeDisabledStillFails(t *testing.T) {
	sc := degradeScenario(t)
	armFault(t, "milp.node=error")
	cfg := Config{Coverage: CoverGAC} // Degrade off

	_, err := Run(context.Background(), sc, cfg)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want wrapping fault.ErrInjected", err)
	}
}

func TestDegradeSkipsOnCallerCancel(t *testing.T) {
	sc := degradeScenario(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Coverage: CoverGAC, Degrade: true, RetryBackoff: time.Millisecond}

	fallbacksBefore := TotalFallbacks()
	_, err := Run(ctx, sc, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if TotalFallbacks() != fallbacksBefore {
		t.Fatal("caller cancellation must not trigger a fallback")
	}
}

func TestDegradeExpiredDeadlineRunsInOvertime(t *testing.T) {
	// A deadline that expired before the pipeline even started: every stage
	// runs under the shared detached overtime budget and succeeds at full
	// fidelity — the result is NOT degraded, just late.
	sc := degradeScenario(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	// Full fidelity requires the deterministic node cap to be the binding
	// budget: a reachable wall-clock zone limit would truncate the search
	// and (correctly) mark the solution Degraded. The cap is small enough
	// that the whole run ends well inside the 30 s DegradeTimeout even
	// under the race detector on two CPUs.
	cfg := Config{
		Coverage: CoverGAC, Degrade: true, RetryBackoff: time.Millisecond,
		ILP: lower.ILPOptions{TimeLimit: time.Hour, MaxNodes: 200},
	}

	sol, err := Run(ctx, sc, cfg)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if sol.Degraded {
		t.Fatalf("overtime run succeeded at full fidelity but solution marked Degraded: %q", sol.DegradedReason)
	}
	if !sol.Feasible {
		t.Fatal("expected feasible solution from overtime run")
	}
}

func TestDegradeHardStopAbortsOvertime(t *testing.T) {
	// Same setup as TestDegradeExpiredDeadlineRunsInOvertime — the caller's
	// deadline expired before the pipeline started, so every stage runs on
	// the detached overtime context — but HardStop is already closed (the
	// server force-shut down). Overtime must abort instead of running out
	// the DegradeTimeout budget.
	sc := degradeScenario(t)
	armFault(t, "milp.node=delay:d=200ms:n=1") // hold the stage until the watcher fires
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	stop := make(chan struct{})
	close(stop)
	cfg := Config{
		Coverage: CoverGAC, Degrade: true, RetryBackoff: time.Millisecond,
		HardStop: stop,
	}

	start := time.Now()
	_, err := Run(ctx, sc, cfg)
	if err == nil {
		t.Fatal("overtime run under a closed HardStop succeeded; want cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapping context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("HardStop took %v to unwind; want prompt abort", elapsed)
	}
}

func TestDegradeMidRunDeadlineFallsBackWithoutRetry(t *testing.T) {
	// The deadline blows while the first attempt is inside branch-and-bound
	// (an injected delay outlasts it). Re-running the exact solve that just
	// outran the clock would burn the recovery budget, so the ladder skips
	// the retry and goes straight to the SAMC fallback.
	sc := degradeScenario(t)
	armFault(t, "milp.node=delay:d=500ms:n=1")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	cfg := Config{Coverage: CoverGAC, Degrade: true, RetryBackoff: time.Millisecond}

	retriesBefore, fallbacksBefore := TotalRetries(), TotalFallbacks()
	sol, err := Run(ctx, sc, cfg)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if !sol.Degraded || !sol.Feasible {
		t.Fatalf("Degraded = %v, Feasible = %v; want degraded feasible solution", sol.Degraded, sol.Feasible)
	}
	if !strings.Contains(sol.DegradedReason, "GAC -> SAMC") {
		t.Fatalf("DegradedReason = %q, want mention of GAC -> SAMC", sol.DegradedReason)
	}
	if TotalFallbacks() <= fallbacksBefore {
		t.Fatal("TotalFallbacks did not increase")
	}
	if TotalRetries() != retriesBefore {
		t.Fatalf("deadline failure with a fallback must not retry the exact solve (retries %d -> %d)",
			retriesBefore, TotalRetries())
	}
}

func TestDegradeTransientErrorRecoveredByRetry(t *testing.T) {
	// A fault that fires exactly once: the first attempt fails, the retry
	// runs clean and produces the full-fidelity result — no fallback.
	sc := degradeScenario(t)
	armFault(t, "milp.node=error:n=1")
	// Wall-clock zone limit out of reach: the retry must reach full
	// fidelity, which a truncated (Degraded) search would not be.
	cfg := Config{
		Coverage: CoverGAC, Degrade: true, RetryBackoff: time.Millisecond,
		ILP: lower.ILPOptions{TimeLimit: time.Hour},
	}

	retriesBefore, fallbacksBefore := TotalRetries(), TotalFallbacks()
	sol, err := Run(context.Background(), sc, cfg)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if sol.Degraded {
		t.Fatalf("retry succeeded at full fidelity but solution marked Degraded: %q", sol.DegradedReason)
	}
	if !sol.Feasible {
		t.Fatal("expected feasible solution from retry")
	}
	if TotalRetries() <= retriesBefore {
		t.Fatal("TotalRetries did not increase")
	}
	if TotalFallbacks() != fallbacksBefore {
		t.Fatal("transient failure recovered by retry must not fall back")
	}
}

func TestDegradeInjectedCancelIsNotCallerCancel(t *testing.T) {
	// A fault-injected "cancel" looks like context.Canceled to the stage
	// but the caller's context is alive, so the ladder must engage.
	sc := degradeScenario(t)
	armFault(t, "milp.node=cancel")
	cfg := Config{Coverage: CoverGAC, Degrade: true, RetryBackoff: time.Millisecond}

	sol, err := Run(context.Background(), sc, cfg)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if !sol.Degraded || !sol.Feasible {
		t.Fatalf("Degraded = %v, Feasible = %v; want degraded feasible solution", sol.Degraded, sol.Feasible)
	}
}

func TestUnknownMethodFailsFastEvenWithDegrade(t *testing.T) {
	sc := degradeScenario(t)
	cfg := Config{Coverage: CoverageMethod(99), Degrade: true}
	if _, err := Run(context.Background(), sc, cfg); err == nil ||
		!strings.Contains(err.Error(), "unknown coverage method") {
		t.Fatalf("err = %v, want unknown coverage method", err)
	}
}
