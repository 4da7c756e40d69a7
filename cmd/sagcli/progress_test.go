package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"sagrelay/internal/lower"
	"sagrelay/internal/milp"
	"sagrelay/internal/scenario"
)

// TestProgressMeterCountsSAMCZones: SAMC runs no branch and bound, yet the
// -progress meter must count each of its zones done.
func TestProgressMeterCountsSAMCZones(t *testing.T) {
	sc, err := scenario.Generate(scenario.GenConfig{FieldSide: 800, NumSS: 15, NumBS: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	meter := newProgressMeter(&buf)
	res, err := lower.SAMC(milp.WithProgress(context.Background(), meter.observe), sc, lower.SAMCOptions{})
	if err != nil || !res.Feasible {
		t.Fatalf("SAMC: feasible=%v err=%v", res != nil && res.Feasible, err)
	}
	meter.finish()
	if len(res.Zones) < 2 {
		t.Fatalf("%d zones; the scenario must have several", len(res.Zones))
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := fmt.Sprintf("sagcli: zones %d/%d done, 0 nodes (final)", len(res.Zones), len(res.Zones))
	if got := lines[len(lines)-1]; got != want {
		t.Errorf("final meter line %q, want %q", got, want)
	}
}
