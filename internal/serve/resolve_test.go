package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sagrelay/internal/admit"
	"sagrelay/internal/geom"
	"sagrelay/internal/milp"
	"sagrelay/internal/scenario"
)

// clusteredBase pins a multi-zone instance: three separated subscriber
// clusters whose coverage circles cannot merge, so a move inside one
// cluster leaves the other zones clean.
func clusteredBase(t *testing.T) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Generate(scenario.GenConfig{
		FieldSide: 600, NumSS: 12, NumBS: 2, SNRdB: -15, Seed: 21,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	centers := []geom.Point{{X: 90, Y: 90}, {X: 510, Y: 90}, {X: 300, Y: 520}}
	for i := range sc.Subscribers {
		c := centers[i/4]
		sc.Subscribers[i].Pos = geom.Point{
			X: c.X + float64(i%4)*11 - 16,
			Y: c.Y + float64((i*7)%5)*9 - 18,
		}
		sc.Subscribers[i].DistReq = 30
		sc.Subscribers[i].MinRxPower = sc.DeriveMinRxPower(30)
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("clustered base invalid: %v", err)
	}
	return sc
}

func moveDelta(id int, to geom.Point) *scenario.Delta {
	return &scenario.Delta{Version: scenario.DeltaVersion, Ops: []scenario.DeltaOp{
		{Op: scenario.OpMoveSS, ID: id, Pos: &to},
	}}
}

// stripTrace removes the span tree from a result document: resolve jobs
// carry an extra "incr" span and all spans carry wall-clock timings, so
// byte-identity claims compare everything except the trace.
func stripTrace(t *testing.T, doc []byte) []byte {
	t.Helper()
	var r ResultDoc
	if err := json.Unmarshal(doc, &r); err != nil {
		t.Fatalf("result not JSON: %v", err)
	}
	r.Trace = nil
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// coldSolveDoc solves sc on a fresh server (empty caches) and returns the
// trace-stripped result document — the ground truth a resolve must match.
func coldSolveDoc(t *testing.T, sc *scenario.Scenario, opts SolveOptions) []byte {
	t.Helper()
	s := newTestServer(t, Options{})
	job, err := s.Submit(SolveRequest{Scenario: sc, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job, 60*time.Second)
	doc, state := job.resultBytes()
	if state != StateDone {
		t.Fatalf("cold solve: %v (%s)", state, job.status().Error)
	}
	return stripTrace(t, doc)
}

// TestResolveNoOpDelta: an empty delta leaves the scenario untouched, so the
// resolve hashes to the same request key and is served from the whole-result
// cache — byte-identical, no solver work, zero branch-and-bound nodes.
func TestResolveNoOpDelta(t *testing.T) {
	s := newTestServer(t, Options{})
	opts := SolveOptions{Coverage: "IAC"}
	base, err := s.Submit(SolveRequest{Scenario: tinyScenario(t), Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, base, 60*time.Second)
	baseDoc, state := base.resultBytes()
	if state != StateDone {
		t.Fatalf("base solve: %v", state)
	}

	nodes0 := milp.TotalNodes()
	job, err := s.Resolve(ResolveRequest{
		BaseJob: base.ID,
		Delta:   &scenario.Delta{Version: scenario.DeltaVersion},
		Options: opts,
	})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	waitDone(t, job, 10*time.Second)
	doc, state := job.resultBytes()
	if state != StateDone {
		t.Fatalf("resolve: %v (%s)", state, job.status().Error)
	}
	st := job.status()
	if !st.CacheHit {
		t.Error("no-op resolve was not a cache hit")
	}
	if got := milp.TotalNodes() - nodes0; got != 0 {
		t.Errorf("no-op resolve explored %d B&B nodes, want 0", got)
	}
	if !bytes.Equal(doc, baseDoc) {
		t.Error("no-op resolve is not byte-identical to the base result")
	}
	if st.ScenarioHash != base.ScenarioHash {
		t.Errorf("no-op resolve scenario hash %s != base %s", st.ScenarioHash, base.ScenarioHash)
	}
}

// TestResolveMatchesColdSolve chains three deltas — a small in-cluster move,
// a zone-emptying removal, and a partition-changing cross-field move — and
// checks each resolved result is byte-identical (modulo trace) to a cold
// solve of the same mutated scenario on a fresh server.
func TestResolveMatchesColdSolve(t *testing.T) {
	s := newTestServer(t, Options{})
	sc := clusteredBase(t)
	var opts SolveOptions // defaults: SAMC + green + MBMC

	job, err := s.Submit(SolveRequest{Scenario: sc, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job, 60*time.Second)
	if _, state := job.resultBytes(); state != StateDone {
		t.Fatalf("base solve: %v", state)
	}

	cur := sc
	steps := []struct {
		name string
		d    *scenario.Delta
	}{
		{"small move", moveDelta(sc.Subscribers[0].ID, geom.Point{X: sc.Subscribers[0].Pos.X + 6, Y: sc.Subscribers[0].Pos.Y + 5})},
		{"zone-emptying remove", &scenario.Delta{Version: scenario.DeltaVersion, Ops: []scenario.DeltaOp{
			{Op: scenario.OpRemoveSS, ID: sc.Subscribers[11].ID},
		}}},
		{"partition-changing move", moveDelta(sc.Subscribers[1].ID, geom.Point{X: 305, Y: 512})},
	}
	baseJob := job.ID
	for i, step := range steps {
		rj, err := s.Resolve(ResolveRequest{BaseJob: baseJob, Delta: step.d, Options: opts})
		if err != nil {
			t.Fatalf("%s: Resolve: %v", step.name, err)
		}
		waitDone(t, rj, 60*time.Second)
		doc, state := rj.resultBytes()
		if state != StateDone {
			t.Fatalf("%s: resolve: %v (%s)", step.name, state, rj.status().Error)
		}
		st := rj.status()
		if st.TotalZones < 3 {
			t.Errorf("%s: base has %d zones, want >= 3", step.name, st.TotalZones)
		}
		if st.DirtyZones < 1 || st.DirtyZones > st.TotalZones {
			t.Errorf("%s: dirty zones %d/%d implausible", step.name, st.DirtyZones, st.TotalZones)
		}
		if i == 0 && st.DirtyZones >= st.TotalZones {
			t.Errorf("small in-cluster move dirtied all %d zones", st.TotalZones)
		}
		mut, err := step.d.Apply(cur)
		if err != nil {
			t.Fatalf("%s: Apply: %v", step.name, err)
		}
		if got, want := stripTrace(t, doc), coldSolveDoc(t, mut, opts); !bytes.Equal(got, want) {
			t.Errorf("%s: resolve differs from cold solve\nresolve: %s\ncold:    %s", step.name, got, want)
		}
		cur, baseJob = mut, rj.ID
	}
}

// TestResolveByHashAndErrors covers the addressing modes and the typed
// failure paths of Resolve.
func TestResolveByHashAndErrors(t *testing.T) {
	s := newTestServer(t, Options{})
	sc := tinyScenario(t)
	base, err := s.Submit(SolveRequest{Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, base, 60*time.Second)
	d := moveDelta(sc.Subscribers[0].ID, geom.Point{X: 250, Y: 250})

	// Addressing by scenario hash works without naming the job.
	job, err := s.Resolve(ResolveRequest{BaseScenarioHash: base.ScenarioHash, Delta: d})
	if err != nil {
		t.Fatalf("resolve by hash: %v", err)
	}
	waitDone(t, job, 60*time.Second)
	if _, state := job.resultBytes(); state != StateDone {
		t.Fatalf("resolve by hash: %v", state)
	}

	cases := []struct {
		name string
		req  ResolveRequest
		want error
	}{
		{"missing job", ResolveRequest{BaseJob: "nope", Delta: d}, ErrNoBase},
		{"unknown hash", ResolveRequest{BaseScenarioHash: "deadbeef", Delta: d}, ErrNoBase},
		{"no delta", ResolveRequest{BaseJob: base.ID}, scenario.ErrBadDelta},
		{"no base", ResolveRequest{Delta: d}, scenario.ErrBadDelta},
		{"dangling entity", ResolveRequest{BaseJob: base.ID,
			Delta: moveDelta(99999, geom.Point{X: 1, Y: 1})}, scenario.ErrUnknownEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.Resolve(tc.req); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestResolveHTTP exercises POST /v1/resolve end to end: happy path with
// wait=1, 404 for a missing base, 400 for a malformed delta.
func TestResolveHTTP(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sc := tinyScenario(t)
	body, _ := json.Marshal(SolveRequest{Scenario: sc})
	resp, err := http.Post(ts.URL+"/v1/solve?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base solve: %d", resp.StatusCode)
	}
	var baseJobID string
	{
		resp, err := http.Get(ts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Jobs []jobStatus `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(list.Jobs) == 0 {
			t.Fatal("no jobs listed")
		}
		baseJobID = list.Jobs[0].ID
	}

	post := func(req ResolveRequest) (*http.Response, []byte) {
		t.Helper()
		b, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/resolve?wait=1", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, out
	}

	d := moveDelta(sc.Subscribers[0].ID, geom.Point{X: 222, Y: 111})
	resp2, out := post(ResolveRequest{BaseJob: baseJobID, Delta: d})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resolve: %d %s", resp2.StatusCode, out)
	}
	var doc ResultDoc
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("resolve result not JSON: %v", err)
	}
	if !doc.Feasible {
		t.Errorf("resolved scenario infeasible: %+v", doc)
	}

	if resp3, out := post(ResolveRequest{BaseJob: "missing", Delta: d}); resp3.StatusCode != http.StatusNotFound {
		t.Errorf("missing base: %d %s, want 404", resp3.StatusCode, out)
	}
	if resp4, out := post(ResolveRequest{BaseJob: baseJobID}); resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("nil delta: %d %s, want 400", resp4.StatusCode, out)
	}
	if resp5, out := post(ResolveRequest{BaseJob: baseJobID,
		Delta: moveDelta(12345, geom.Point{X: 1, Y: 2})}); resp5.StatusCode != http.StatusBadRequest {
		t.Errorf("dangling delta: %d %s, want 400", resp5.StatusCode, out)
	}
}

// TestResolveRefusedIsNotCounted: incr_resolves counts accepted resolves
// only. A resolve that submit refuses (here by the per-client rate limit)
// must leave it alone.
func TestResolveRefusedIsNotCounted(t *testing.T) {
	s := newTestServer(t, Options{Rate: 0.001, Burst: 1})
	sc := tinyScenario(t)
	base := submitAndWait(t, s, sc, SolveOptions{})

	id := sc.Subscribers[0].ID
	job, err := s.ResolveFrom("tenant", ResolveRequest{BaseJob: base.ID, Delta: moveDelta(id, geom.Point{X: 150, Y: 150})})
	if err != nil {
		t.Fatalf("first resolve: %v", err)
	}
	waitDone(t, job, 60*time.Second)
	_, err = s.ResolveFrom("tenant", ResolveRequest{BaseJob: base.ID, Delta: moveDelta(id, geom.Point{X: 160, Y: 140})})
	var rl *admit.RateLimitError
	if !errors.As(err, &rl) {
		t.Fatalf("second resolve: err = %v, want *admit.RateLimitError", err)
	}
	m := s.MetricsSnapshot()
	if m["incr_resolves"] != 1 || m["rate_limited_total"] != 1 {
		t.Errorf("incr_resolves = %d, rate_limited_total = %d, want 1 and 1",
			m["incr_resolves"], m["rate_limited_total"])
	}
}

// TestResolveIgnoresLegacyFastField: request decoding ignores unknown
// fields, so an old client's "fast": true is dropped. That resolve is an
// exact, cached solve, and the same resolve without the field replays it
// byte for byte from the result cache with no solver work.
func TestResolveIgnoresLegacyFastField(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sc := clusteredBase(t)
	opts := SolveOptions{Coverage: "IAC", Workers: 1}
	base, err := s.Submit(SolveRequest{Scenario: sc, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, base, 60*time.Second)

	req := ResolveRequest{
		BaseScenarioHash: base.ScenarioHash,
		Delta:            moveDelta(sc.Subscribers[1].ID, geom.Point{X: 70, Y: 95}),
		Options:          opts,
	}
	exact, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(exact, &fields); err != nil {
		t.Fatal(err)
	}
	fields["fast"] = json.RawMessage("true")
	legacy, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/resolve?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("resolve: %d %s", resp.StatusCode, out)
		}
		return out
	}

	first := post(legacy)
	hits, nodes := s.metrics.CacheHits.Load(), milp.TotalNodes()
	second := post(exact)
	if !bytes.Equal(first, second) {
		t.Error(`resolve with "fast": true differs from the same resolve without it`)
	}
	if got := s.metrics.CacheHits.Load() - hits; got != 1 {
		t.Errorf("second resolve: %d cache hits, want 1", got)
	}
	if got := milp.TotalNodes() - nodes; got != 0 {
		t.Errorf("second resolve explored %d B&B nodes, want 0", got)
	}
	mut, err := req.Delta.Apply(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stripTrace(t, first), coldSolveDoc(t, mut, opts)) {
		t.Error(`resolve with "fast": true is not byte-identical to a cold solve`)
	}
}
