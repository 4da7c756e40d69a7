package serve

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"sagrelay/internal/milp"
)

// progressSchema versions the /v1/jobs/{id}/progress document.
const progressSchema = "sagprogress/1"

// curveCap bounds the retained progress curve per job: when the curve
// fills, every other point is dropped (halving decimation), so long solves
// keep a coarser but full-history curve at bounded memory.
const curveCap = 512

// curveCoalesce is the minimum spacing between retained curve points;
// incumbent and final events are always retained.
const curveCoalesce = 20 * time.Millisecond

// zoneRow is one zone's convergence state inside a progress document.
type zoneRow struct {
	Zone        int     `json:"zone"`
	Subscribers int     `json:"subscribers"`
	Phase       string  `json:"phase"` // solving | done | reused
	Nodes       int     `json:"nodes"`
	Pivots      int     `json:"pivots"`
	WarmSolves  int     `json:"warm_solves"`
	ColdSolves  int     `json:"cold_solves"`
	Incumbent   float64 `json:"incumbent,omitempty"`
	Bound       float64 `json:"bound,omitempty"`
	Gap         float64 `json:"gap"`
	HasGap      bool    `json:"has_gap"`
	Status      string  `json:"status,omitempty"`
}

// progressPoint is one sample of the job-wide progress curve, retained for
// the flight record so a postmortem can see the convergence shape.
type progressPoint struct {
	ElapsedMS float64 `json:"elapsed_ms"`
	Nodes     int     `json:"nodes"`
	Pivots    int     `json:"pivots"`
	ZonesDone int     `json:"zones_done"`
	WorstGap  float64 `json:"worst_gap"`
}

// progressDoc is the JSON shape of GET /v1/jobs/{id}/progress and of each
// NDJSON line of the ?stream=1 live tail.
type progressDoc struct {
	Schema    string   `json:"schema"`
	JobID     string   `json:"job_id"`
	State     JobState `json:"state"`
	Seq       uint64   `json:"seq"`
	ElapsedMS int64    `json:"elapsed_ms"`
	Nodes     int      `json:"nodes"`
	Pivots    int      `json:"pivots"`
	Warm      int      `json:"warm_solves"`
	Cold      int      `json:"cold_solves"`
	ZonesSeen int      `json:"zones_seen"`
	ZonesDone int      `json:"zones_done"`
	Reused    int      `json:"zones_reused"`
	// WorstGap is the largest current gap across zones that have an
	// incumbent; WorstZone its index (-1 when no zone reported a gap yet).
	WorstGap  float64   `json:"worst_gap"`
	WorstZone int       `json:"worst_zone"`
	Final     bool      `json:"final"`
	Zones     []zoneRow `json:"zones"`
}

// jobProgress accumulates milp progress events into per-zone rows. One
// instance per solver-bound job; cache hits and journal-restored jobs have
// none (their progress endpoint serves an empty terminal snapshot).
// observe is called concurrently from every zone worker of the solve.
type jobProgress struct {
	mu      sync.Mutex
	started time.Time
	zones   map[int]*zoneRow
	seq     uint64
	// changed is closed and replaced whenever the state advances; stream
	// watchers re-fetch it each round (closed-channel broadcast).
	changed   chan struct{}
	curve     []progressPoint
	lastPoint time.Time
}

func newJobProgress() *jobProgress {
	return &jobProgress{
		zones:   make(map[int]*zoneRow),
		changed: make(chan struct{}),
	}
}

// markStart stamps the solve start time (queue wait excluded from the
// curve's elapsed axis).
func (p *jobProgress) markStart() {
	p.mu.Lock()
	p.started = time.Now()
	p.mu.Unlock()
}

// observe folds one solver event in. It is the milp.ProgressFunc installed
// on the job's context.
func (p *jobProgress) observe(ev milp.Progress) {
	p.mu.Lock()
	defer p.mu.Unlock()
	row := p.zones[ev.Zone]
	if row == nil {
		row = &zoneRow{Zone: ev.Zone, Phase: "solving"}
		p.zones[ev.Zone] = row
	}
	row.Subscribers = ev.Subscribers
	if ev.Kind == milp.KindZoneReused {
		row.Phase = "reused"
	} else {
		row.Nodes = ev.Nodes
		row.Pivots = ev.Pivots
		row.WarmSolves = ev.WarmSolves
		row.ColdSolves = ev.ColdSolves
		if ev.HasIncumbent {
			row.Incumbent = ev.Incumbent
			row.Bound = ev.Bound
			row.Gap = ev.Gap
			row.HasGap = true
		}
		if ev.Final {
			row.Phase = "done"
			// A zone solved without a B&B search (SAMC, the hitting-set
			// covers) closes with a zero Status: it has none to report.
			if ev.Status != 0 {
				row.Status = ev.Status.String()
			}
		} else {
			row.Phase = "solving"
		}
	}
	p.seq++
	close(p.changed)
	p.changed = make(chan struct{})
	p.notePointLocked(ev.Final || ev.Kind == milp.KindIncumbent)
}

// notePointLocked appends a curve point, coalescing bursts and halving the
// curve when it outgrows curveCap.
func (p *jobProgress) notePointLocked(force bool) {
	now := time.Now()
	if !force && now.Sub(p.lastPoint) < curveCoalesce {
		return
	}
	p.lastPoint = now
	var pt progressPoint
	if !p.started.IsZero() {
		pt.ElapsedMS = float64(now.Sub(p.started).Microseconds()) / 1000
	}
	pt.WorstGap = -1
	for _, row := range p.zones {
		pt.Nodes += row.Nodes
		pt.Pivots += row.Pivots
		if row.Phase == "done" || row.Phase == "reused" {
			pt.ZonesDone++
		}
		if row.HasGap && row.Phase == "solving" && row.Gap > pt.WorstGap {
			pt.WorstGap = row.Gap
		}
	}
	p.curve = append(p.curve, pt)
	if len(p.curve) > curveCap {
		half := p.curve[:0]
		for i := 0; i < len(p.curve); i += 2 {
			half = append(half, p.curve[i])
		}
		p.curve = half
	}
}

// watch returns the current change channel; it is closed on the next state
// advance.
func (p *jobProgress) watch() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.changed
}

// curvePoints returns a copy of the retained progress curve.
func (p *jobProgress) curvePoints() []progressPoint {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]progressPoint(nil), p.curve...)
}

// snapshot renders the current progress document for job.
func (p *jobProgress) snapshot(job *Job) progressDoc {
	st := job.status()
	doc := progressDoc{
		Schema:    progressSchema,
		JobID:     job.ID,
		State:     st.State,
		ElapsedMS: st.ElapsedMS,
		WorstZone: -1,
		Final:     st.State == StateDone || st.State == StateFailed || st.State == StateCancelled,
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	doc.Seq = p.seq
	doc.Zones = make([]zoneRow, 0, len(p.zones))
	for _, row := range p.zones {
		doc.Zones = append(doc.Zones, *row)
	}
	sort.Slice(doc.Zones, func(i, j int) bool { return doc.Zones[i].Zone < doc.Zones[j].Zone })
	for _, row := range doc.Zones {
		doc.Nodes += row.Nodes
		doc.Pivots += row.Pivots
		doc.Warm += row.WarmSolves
		doc.Cold += row.ColdSolves
		doc.ZonesSeen++
		switch row.Phase {
		case "done":
			doc.ZonesDone++
		case "reused":
			doc.ZonesDone++
			doc.Reused++
		}
		if row.HasGap && row.Gap > doc.WorstGap && row.Phase == "solving" {
			doc.WorstGap = row.Gap
			doc.WorstZone = row.Zone
		}
	}
	return doc
}

// emptyProgressDoc is the snapshot for jobs with no progress state (cache
// hits, journal-restored jobs): identity and terminal state only.
func emptyProgressDoc(job *Job) progressDoc {
	st := job.status()
	return progressDoc{
		Schema:    progressSchema,
		JobID:     job.ID,
		State:     st.State,
		ElapsedMS: st.ElapsedMS,
		WorstZone: -1,
		Final:     st.State == StateDone || st.State == StateFailed || st.State == StateCancelled,
		Zones:     []zoneRow{},
	}
}

// handleProgress serves GET /v1/jobs/{id}/progress: a JSON snapshot of the
// job's live convergence state, or — with ?stream=1 — an NDJSON tail that
// emits a new snapshot whenever the state advances and closes with a final
// snapshot when the job reaches a terminal state.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		s.writeNotFound(w, "no such job")
		return
	}
	p := job.progressState()
	if r.URL.Query().Get("stream") != "1" {
		if p == nil {
			writeJSON(w, http.StatusOK, emptyProgressDoc(job))
			return
		}
		writeJSON(w, http.StatusOK, p.snapshot(job))
		return
	}

	s.metrics.ProgressStreams.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	write := func(doc progressDoc) bool {
		if err := enc.Encode(doc); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	if p == nil {
		// No live progress to tail; emit the terminal (or empty) snapshot
		// once the job settles.
		select {
		case <-job.done:
		case <-r.Context().Done():
			return
		}
		write(emptyProgressDoc(job))
		return
	}

	var lastSeq uint64
	first := true
	for {
		ch := p.watch()
		doc := p.snapshot(job)
		if doc.Final {
			// Terminal: one closing line carrying the settled state.
			write(doc)
			return
		}
		if first || doc.Seq != lastSeq {
			if !write(doc) {
				return
			}
			lastSeq, first = doc.Seq, false
		}
		select {
		case <-ch:
		case <-job.done:
		case <-r.Context().Done():
			return
		}
	}
}
