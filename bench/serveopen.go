package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"sagrelay/internal/core"
	"sagrelay/internal/geom"
	"sagrelay/internal/lower"
	"sagrelay/internal/scenario"
	"sagrelay/internal/serve"
)

// Request classes of the serve-open mix.
const (
	classHit = iota
	classColdSAMC
	classResolve
	classColdIAC
	numClasses
)

var classNames = [numClasses]string{"hit", "cold_samc", "resolve", "cold_iac"}

// serveSpec is the serve-open workload: an in-process solve service behind
// httptest, with a journal on disk, driven by one open-loop client over at
// most two keep-alive connections.
type serveSpec struct {
	// rate is the reference arrival rate (requests/s); refShare is the share
	// of the time budget spent at it, the rest is split evenly over the
	// ladder's steps.
	rate     float64
	refShare float64
	ladder   []float64
	// limit is the latency limit (s) behind goodput and the ladder.
	limit float64
	// mix is one block of the request mix, counted per class; every block of
	// requests is a fresh shuffle of it, so class shares hold exactly.
	mix [numClasses]int
	// hitPool is the number of prefilled SAMC scenarios hits repeat, and
	// bases the number of prefilled IAC scenarios resolves move a
	// subscriber of. Several bases keep one base's zone layout from setting
	// every resolve's cost.
	hitPool, bases int
	// quality is how many leading reference requests relays_total and
	// power_total sum over.
	quality int
	// twinShare is the seeded share of solver answers re-solved in-process
	// with core.Run for comparison.
	twinShare float64

	samc, iac, base scenario.GenConfig
	iacOpts         serve.SolveOptions
}

// serviceWorkers bounds both the solve service's pool and the client's
// connections: the load comes from one process over two connections into
// two solver workers.
const serviceWorkers = 2

// samcOpts are the options of hit and cold-SAMC requests: the defaults, on
// one solver goroutine per job.
var samcOpts = serve.SolveOptions{Workers: 1}

// coreConfig mirrors the solve service's translation of opts (defaults,
// degradation ladder on), for the in-process twin solves.
func coreConfig(opts serve.SolveOptions) core.Config {
	cfg := pipeline(core.CoverSAMC, core.PowerGreen, 3000)
	if opts.Coverage == "IAC" {
		cfg.Coverage = core.CoverIAC
	}
	if opts.MaxNodes > 0 {
		cfg.ILP.MaxNodes = opts.MaxNodes
	}
	cfg.ILP.TimeLimit = 2 * time.Second
	if opts.ZoneTimeoutMS > 0 {
		cfg.ILP.TimeLimit = time.Duration(opts.ZoneTimeoutMS) * time.Millisecond
	}
	cfg.Degrade = true
	return cfg
}

// request is one planned HTTP request.
type request struct {
	class int
	due   time.Duration
	path  string
	body  []byte
	// sc is the scenario the service solves (the mutated one for a
	// resolve); hit is the hit-pool index of a hit.
	sc   *scenario.Scenario
	opts serve.SolveOptions
	hit  int
	twin bool
}

// planner draws every request of one run from the seed.
type planner struct {
	spec  *serveSpec
	rng   *rand.Rand
	hits  []*scenario.Scenario
	bases []*scenario.Scenario
	block []int
}

func newPlanner(spec *serveSpec, seed int64) (*planner, error) {
	p := &planner{spec: spec, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < spec.hitPool; i++ {
		sc, err := p.scenario(spec.samc)
		if err != nil {
			return nil, err
		}
		p.hits = append(p.hits, sc)
	}
	for i := 0; i < spec.bases; i++ {
		sc, err := p.scenario(spec.base)
		if err != nil {
			return nil, err
		}
		p.bases = append(p.bases, sc)
	}
	return p, nil
}

func (p *planner) scenario(gen scenario.GenConfig) (*scenario.Scenario, error) {
	gen.Seed = p.rng.Int63()
	return scenario.Generate(gen)
}

// arrivals plans a Poisson stream at rate over span: exponential gaps, so a
// prefix of the stream does not depend on the span's length.
func (p *planner) arrivals(rate float64, span time.Duration) ([]*request, error) {
	var out []*request
	t := 0.0
	for {
		t += p.rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			return out, nil
		}
		r, err := p.request(p.nextClass())
		if err != nil {
			return nil, err
		}
		r.due = due
		out = append(out, r)
	}
}

func (p *planner) nextClass() int {
	if len(p.block) == 0 {
		for c, n := range p.spec.mix {
			for i := 0; i < n; i++ {
				p.block = append(p.block, c)
			}
		}
		p.rng.Shuffle(len(p.block), func(i, j int) { p.block[i], p.block[j] = p.block[j], p.block[i] })
	}
	c := p.block[0]
	p.block = p.block[1:]
	return c
}

func (p *planner) request(class int) (*request, error) {
	r := &request{class: class, path: "/v1/solve?wait=1", opts: samcOpts}
	var err error
	switch class {
	case classHit:
		r.hit = p.rng.Intn(len(p.hits))
		r.sc = p.hits[r.hit]
	case classColdSAMC:
		r.sc, err = p.scenario(p.spec.samc)
	case classColdIAC:
		r.opts = p.spec.iacOpts
		r.sc, err = p.scenario(p.spec.iac)
	case classResolve:
		return p.resolve()
	}
	if err != nil {
		return nil, err
	}
	if class != classHit {
		r.twin = p.rng.Float64() < p.spec.twinShare
	}
	r.body, err = json.Marshal(serve.SolveRequest{Scenario: r.sc, Options: r.opts})
	return r, err
}

// resolve plans a single-subscriber move of a few units against a base.
func (p *planner) resolve() (*request, error) {
	for {
		base := p.bases[p.rng.Intn(len(p.bases))]
		ss := base.Subscribers[p.rng.Intn(len(base.Subscribers))]
		angle, dist := 2*math.Pi*p.rng.Float64(), 2+6*p.rng.Float64()
		pos := base.Field.Clamp(geom.Pt(ss.Pos.X+dist*math.Cos(angle), ss.Pos.Y+dist*math.Sin(angle)))
		d := &scenario.Delta{Version: scenario.DeltaVersion, Ops: []scenario.DeltaOp{
			{Op: scenario.OpMoveSS, ID: ss.ID, Pos: &pos},
		}}
		mutated, err := d.Apply(base)
		if err != nil {
			continue // the move landed on another station; draw again
		}
		body, err := json.Marshal(serve.ResolveRequest{BaseScenarioHash: base.CanonicalHash(), Delta: d, Options: p.spec.iacOpts})
		if err != nil {
			return nil, err
		}
		return &request{
			class: classResolve, path: "/v1/resolve?wait=1", body: body,
			sc: mutated, opts: p.spec.iacOpts, twin: p.rng.Float64() < p.spec.twinShare,
		}, nil
	}
}

// service is the solve service under test and the client that drives it.
type service struct {
	dir    string
	srv    *serve.Server
	ts     *httptest.Server
	tr     *http.Transport
	client *http.Client
}

func startService(workDir string) (*service, error) {
	dir, err := os.MkdirTemp(workDir, "serve-open-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Options{Workers: serviceWorkers, DataDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: serviceWorkers, MaxIdleConnsPerHost: serviceWorkers}
	return &service{
		dir:    dir,
		srv:    srv,
		ts:     httptest.NewServer(srv.Handler()),
		tr:     tr,
		client: &http.Client{Transport: tr, Timeout: time.Minute},
	}, nil
}

// close stops the client, the listener and the service, then deletes the
// journal. It returns once every request and solve has ended.
func (s *service) close() error {
	s.tr.CloseIdleConnections()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// metrics reads the service's /metrics document.
func (s *service) metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	out := map[string]float64{}
	for k, v := range doc {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// journalBytes sums the sizes of the files the journal keeps on disk.
func (s *service) journalBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// phase turns planned requests into a generator schedule.
func phase(reqs []*request, deadline time.Duration) loadPhase {
	ph := loadPhase{Deadline: deadline}
	for _, r := range reqs {
		ph.Requests = append(ph.Requests, loadReq{Due: r.due, Path: r.path, Body: r.body})
	}
	return ph
}

// runServe measures the serve-open workload: set-up (service start,
// prefill, warm-up), a reference phase at the reference rate, then the
// answer checks. The untraced run spends its whole budget at the reference
// rate, where the end-to-end metrics are measured; the traced run shortens
// that phase and climbs the ladder's steps after it for max_rate_rps.
func runServe(ctx context.Context, name string, spec *serveSpec, o runOpts) (rep *report, err error) {
	rep = newReport(name, o)
	budget := time.Duration(o.seconds * float64(time.Second))
	refSpan, ladder := budget, []float64(nil)
	var stepSpan time.Duration
	if o.trace && len(spec.ladder) > 0 {
		refSpan, ladder = time.Duration(float64(budget)*spec.refShare), spec.ladder
		stepSpan = (budget - refSpan) / time.Duration(len(ladder))
	}

	var (
		svc     *service
		p       *planner
		prefill [][]byte
		ref     []*request
		steps   [][]*request
		setups  []float64
	)
	defer func() {
		if svc != nil {
			if cerr := svc.close(); err == nil && cerr != nil {
				err = fmt.Errorf("stop service: %w", cerr)
			}
		}
	}()
	for k := 0; k < o.setups; k++ {
		if svc != nil {
			if err := svc.close(); err != nil {
				return nil, fmt.Errorf("stop service: %w", err)
			}
			svc = nil
		}
		t0 := time.Now()
		if p, err = newPlanner(spec, o.seed); err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		if svc, err = startService(o.workDir); err != nil {
			return nil, fmt.Errorf("start service: %w", err)
		}
		if prefill, err = setUpService(ctx, svc, p); err != nil {
			return nil, err
		}
		if ref, err = p.arrivals(spec.rate, refSpan); err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		steps = steps[:0]
		for _, rate := range ladder {
			reqs, err := p.arrivals(rate, stepSpan)
			if err != nil {
				return nil, fmt.Errorf("plan: %w", err)
			}
			steps = append(steps, reqs)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", "s", quantile(setups, 0.5))

	m0, err := svc.metrics(ctx)
	if err != nil {
		return nil, err
	}
	j0, err := svc.journalBytes()
	if err != nil {
		return nil, err
	}
	// The reference rate is well inside capacity; a request still unsent
	// half a phase late counts as failed.
	plan := &loadPlan{URL: svc.ts.URL, Connections: serviceWorkers, Phases: []loadPhase{phase(ref, refSpan*3/2)}}
	for _, reqs := range steps {
		plan.Phases = append(plan.Phases, phase(reqs, stepSpan))
	}
	c0, mem0 := readCounters(), readMem()
	t0 := time.Now()
	outs, err := runLoadgen(ctx, o.workDir, plan)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0).Seconds()
	refOut, stepOut := outs[0], outs[1:]
	c1, mem1 := readCounters(), readMem()
	m1, err := svc.metrics(ctx)
	if err != nil {
		return nil, err
	}
	j1, err := svc.journalBytes()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	ck := &checker{rep: rep, prefill: prefill, l: ledger{}}
	good, lat := 0, []float64{}
	quality := spec.quality
	if o.quality > 0 {
		quality = o.quality
	}
	var relays int
	var power float64
	for i, r := range ref {
		out := refOut[i]
		rep.Attempted++
		doc, ok := ck.check(r, out, "reference")
		if !out.Sent {
			continue
		}
		lat = append(lat, out.Latency)
		ck.classLat[r.class] = append(ck.classLat[r.class], out.Latency)
		if ok && out.Latency <= spec.limit {
			good++
		}
		if i < quality && doc != nil && doc.Feasible {
			relays += doc.NumCoverage + doc.NumConnectivity
			power += doc.PTotal
		}
	}
	rep.set("throughput_ops_per_s", "ops/s", spec.rate*ratio(float64(good), float64(len(ref))))
	rep.setLatencies(lat)
	rep.set("relays_total", "count", float64(relays))
	rep.set("power_total", "power", power)
	checkGolden(rep, name, o.seed, o.golden && !o.trace && o.quality == 0, relays, power)

	maxRate := 0.0
	if len(lat) > 0 && quantile(lat, 0.99) <= spec.limit {
		maxRate = spec.rate
	}
	sent, late := 0, 0
	var lags []float64
	for si, reqs := range steps {
		var stepLat []float64
		backlog := 0
		for i, r := range reqs {
			out := stepOut[si][i]
			if !out.Sent {
				backlog++
				continue
			}
			rep.Attempted++
			if _, ok := ck.check(r, out, "ladder"); ok {
				stepLat = append(stepLat, out.Latency)
			} else {
				stepLat = append(stepLat, math.Inf(1))
			}
		}
		rate := ladder[si]
		p95 := math.Inf(1)
		if len(stepLat) > 0 {
			p95 = quantile(stepLat, 0.95)
		}
		// The backlog grew when more than a quarter second of arrivals was
		// still queued as the step ended.
		if p95 <= spec.limit && float64(backlog) <= rate/4 {
			maxRate = math.Max(maxRate, rate)
		}
		tag := fmt.Sprintf("ladder.%g_rps.", rate)
		if !math.IsInf(p95, 0) {
			rep.set(tag+"p95_s", "s", p95)
		}
		rep.set(tag+"backlog", "count", float64(backlog))
	}
	for _, ph := range outs {
		for _, out := range ph {
			lags = append(lags, out.Lag)
			if out.Sent {
				sent++
			}
			if out.Lag > 0.01 {
				late++
			}
		}
	}
	if len(ladder) > 0 {
		rep.set("max_rate_rps", "1/s", maxRate)
	}
	ck.twins(ctx)
	rep.set("serve.hit_resolved", "count", float64(ck.evicted))
	rep.setOutcome()

	for c, xs := range ck.classLat {
		if len(xs) > 0 {
			rep.set("serve."+classNames[c]+"_p50_s", "s", quantile(xs, 0.5))
		}
	}
	d := c1.since(c0)
	setLayerCounters(rep, d, ck.l, ck.solves, ck.resolves, ck.serviceSeconds)
	rep.set("upper.relays", "count", ratio(float64(ck.connRelays), float64(ck.solves)))
	var mem memDelta
	mem.add(&mem0, &mem1)
	setGoMetrics(rep, mem, sent)
	// The service traces every job whether or not the benchmark folds the
	// traces, so a traced run adds no work to an untraced one.
	rep.set("obs.trace_overhead_ratio", "ratio", 0)
	rep.set("obs.attributed_ratio", "ratio", ratio(seconds(ck.attributedNS), ck.serviceSeconds))

	hits, misses := m1["cache_hits"]-m0["cache_hits"], m1["cache_misses"]-m0["cache_misses"]
	rep.set("serve.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	rep.set("serve.journal_bytes_per_req", "B", ratio(float64(j1-j0), float64(sent)))
	rep.set("serve.response_bytes_mean", "B", ratio(float64(ck.respBytes), float64(ck.responses)))
	rep.set("serve.queue_wait_mean_s", "s", ratio(d.queueWait, float64(ck.solves)))
	rep.set("serve.queue_wait_share", "ratio", ratio(d.queueWait, ck.serviceSeconds))
	rep.set("serve.solve_busy_s", "s", d.jobSeconds)
	rep.set("serve.solve_utilization", "ratio", ratio(d.jobSeconds, serviceWorkers*wall))
	rep.set("admit.shed", "count", m1["jobs_shed_total"]-m0["jobs_shed_total"])
	rep.set("admit.rate_limited", "count", m1["rate_limited_total"]-m0["rate_limited_total"])
	rep.set("admit.breaker_trips", "count", m1["breaker_trips_total"]-m0["breaker_trips_total"])
	rep.set("admit.degraded", "count", m1["jobs_degraded"]-m0["jobs_degraded"])
	rep.set("loadgen.sent", "count", float64(sent))
	rep.set("loadgen.late_sends", "count", float64(late))
	rep.set("loadgen.lag_p99_s", "s", quantile(lags, 0.99))
	return rep, nil
}

// setUpService prefills the hit pool and the resolve bases, then runs one
// untimed warm-up request of each solver class. It returns the prefill
// answers every later hit must repeat byte for byte.
func setUpService(ctx context.Context, svc *service, p *planner) ([][]byte, error) {
	prefill := make([][]byte, len(p.hits))
	for i, sc := range p.hits {
		body, err := json.Marshal(serve.SolveRequest{Scenario: sc, Options: samcOpts})
		if err != nil {
			return nil, err
		}
		if prefill[i], err = post200(ctx, svc, "/v1/solve?wait=1", body); err != nil {
			return nil, fmt.Errorf("prefill %d: %w", i, err)
		}
	}
	for i, sc := range p.bases {
		body, err := json.Marshal(serve.SolveRequest{Scenario: sc, Options: p.spec.iacOpts})
		if err != nil {
			return nil, err
		}
		if _, err := post200(ctx, svc, "/v1/solve?wait=1", body); err != nil {
			return nil, fmt.Errorf("solve resolve base %d: %w", i, err)
		}
	}
	for _, class := range []int{classColdSAMC, classColdIAC, classResolve} {
		r, err := p.request(class)
		if err != nil {
			return nil, fmt.Errorf("plan warm-up: %w", err)
		}
		if _, err := post200(ctx, svc, r.path, r.body); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", classNames[class], err)
		}
	}
	return prefill, nil
}

func post200(ctx context.Context, svc *service, path string, body []byte) ([]byte, error) {
	status, out, err := post(ctx, svc.client, svc.ts.URL+path, body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(out))
	}
	return out, nil
}

// checker checks every answer the service gave and folds the solver
// answers' span trees.
type checker struct {
	rep     *report
	prefill [][]byte
	l       ledger

	classLat         [numClasses][]float64
	solves, resolves int
	connRelays       int
	serviceSeconds   float64
	attributedNS     int64
	respBytes        int
	responses        int
	evicted          int
	twinReqs         []*request
	twinDocs         []*serve.ResultDoc
}

// check classifies one outcome as failed, wrong or good (ok), and returns
// the parsed answer of a solver request.
func (ck *checker) check(r *request, out outcome, phase string) (*serve.ResultDoc, bool) {
	what := fmt.Sprintf("%s %s request due at %v", phase, classNames[r.class], r.due)
	switch {
	case !out.Sent:
		ck.rep.fail("%s: never sent (client backlog)", what)
		return nil, false
	case out.Err != "":
		ck.rep.fail("%s: %s", what, out.Err)
		return nil, false
	case out.Status != http.StatusOK:
		ck.rep.fail("%s: status %d: %s", what, out.Status, bytes.TrimSpace(out.Body))
		return nil, false
	}
	ck.responses++
	ck.respBytes += len(out.Body)
	var doc serve.ResultDoc
	if err := json.Unmarshal(out.Body, &doc); err != nil {
		ck.rep.wrong("%s: decode answer: %v", what, err)
		return nil, false
	}
	if r.class == classHit && bytes.Equal(out.Body, ck.prefill[r.hit]) {
		return &doc, true
	}

	// A solver answer: a cold solve, a resolve, or a hit whose entry the
	// result cache evicted, so the service solved the scenario again.
	ck.solves++
	if r.class == classResolve {
		ck.resolves++
	}
	ck.connRelays += doc.NumConnectivity
	ck.serviceSeconds += out.Service
	ck.l.fold(doc.Trace)
	if doc.Trace != nil {
		ck.attributedNS += attributed(doc.Trace, leafStages)
	}
	if r.class == classHit {
		// The new document carries the new solve's trace; the answer must
		// equal the first one.
		var first serve.ResultDoc
		if err := json.Unmarshal(ck.prefill[r.hit], &first); err != nil {
			ck.rep.wrong("%s: decode first answer: %v", what, err)
			return nil, false
		}
		again := doc
		first.Trace, again.Trace = nil, nil
		a, aerr := json.Marshal(&first)
		b, berr := json.Marshal(&again)
		if aerr != nil || berr != nil || !bytes.Equal(a, b) {
			ck.rep.wrong("%s: answer differs from the first answer to the same request", what)
			return nil, false
		}
		ck.evicted++
		return &doc, true
	}
	if doc.Degraded {
		ck.rep.fail("%s: degraded: %s", what, doc.DegradedReason)
		return &doc, false
	}
	if err := verifyDoc(r, &doc); err != nil {
		ck.rep.wrong("%s: %v", what, err)
		return &doc, false
	}
	if r.twin {
		ck.twinReqs = append(ck.twinReqs, r)
		ck.twinDocs = append(ck.twinDocs, &doc)
	}
	return &doc, true
}

// verifyDoc rebuilds the coverage result an answer describes and runs the
// program's public verifiers on it: placement and SNR on the zones the
// pipeline solved, then the coverage power allocation.
func verifyDoc(r *request, doc *serve.ResultDoc) error {
	if !doc.Feasible {
		return nil
	}
	if doc.NumCoverage != len(doc.CoverageRelays) || doc.NumConnectivity != len(doc.ConnectivityRelays) {
		return fmt.Errorf("relay counts disagree with relay lists")
	}
	zones, err := lower.ZonePartition(r.sc)
	if err != nil {
		return err
	}
	if r.opts.Coverage == "IAC" {
		zones = lower.SplitLargeZones(r.sc, zones, lower.DefaultMaxZoneSS)
	}
	res := &lower.Result{Feasible: true, Zones: zones, AssignOf: make([]int, r.sc.NumSS())}
	for i := range res.AssignOf {
		res.AssignOf[i] = -1
	}
	powers := make([]float64, 0, len(doc.CoverageRelays))
	pl := 0.0
	for k, rd := range doc.CoverageRelays {
		res.Relays = append(res.Relays, lower.Relay{Pos: rd.Pos, Covers: rd.Covers})
		for _, s := range rd.Covers {
			if s >= 0 && s < len(res.AssignOf) {
				res.AssignOf[s] = k
			}
		}
		powers = append(powers, rd.Power)
		pl += rd.Power
	}
	if err := res.Verify(r.sc, true); err != nil {
		return fmt.Errorf("coverage: %w", err)
	}
	if err := lower.VerifyPower(r.sc, res, powers); err != nil {
		return fmt.Errorf("coverage power: %w", err)
	}
	if math.Abs(pl-doc.PL) > 1e-9*math.Max(1, doc.PL) || math.Abs(doc.PTotal-doc.PL-doc.PH) > 1e-9*math.Max(1, doc.PTotal) {
		return fmt.Errorf("power totals disagree with the relay powers")
	}
	return nil
}

// twins re-solves the sampled answers in-process with core.Run and
// compares relay counts and total power.
func (ck *checker) twins(ctx context.Context) {
	for i, r := range ck.twinReqs {
		doc := ck.twinDocs[i]
		sol, err := core.Run(ctx, r.sc, coreConfig(r.opts))
		if err != nil {
			ck.rep.wrong("twin of %s request: %v", classNames[r.class], err)
			continue
		}
		if sol.Feasible != doc.Feasible || sol.TotalRelays() != doc.NumCoverage+doc.NumConnectivity || sol.PTotal != doc.PTotal {
			ck.rep.wrong("%s answer (%d relays, power %v) differs from an in-process cold solve (%d relays, power %v)",
				classNames[r.class], doc.NumCoverage+doc.NumConnectivity, doc.PTotal, sol.TotalRelays(), sol.PTotal)
		}
	}
	ck.rep.set("serve.twin_checks", "count", float64(len(ck.twinReqs)))
}

// setServeZeros reports the serve-layer metrics of a workload that never
// enters the solve service.
func setServeZeros(r *report) {
	for _, name := range []string{
		"serve.cache_hit_ratio", "serve.queue_wait_share", "serve.solve_utilization",
	} {
		r.set(name, "ratio", 0)
	}
	for _, name := range []string{"serve.journal_bytes_per_req", "serve.response_bytes_mean"} {
		r.set(name, "B", 0)
	}
	for _, name := range []string{
		"admit.shed", "admit.rate_limited", "admit.breaker_trips", "admit.degraded",
		"loadgen.sent", "loadgen.late_sends",
	} {
		r.set(name, "count", 0)
	}
}
