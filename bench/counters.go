package main

import (
	"runtime"

	"sagrelay/internal/incr"
	"sagrelay/internal/lp"
	"sagrelay/internal/milp"
	"sagrelay/internal/obs"
)

// counters snapshots the process-wide odometers the program already keeps,
// so a workload's effort is reported as the delta across its measured phase.
type counters struct {
	nodes, warmStarts, coldFallbacks int64
	pivots                           float64
	zonesReused, zonesResolved       int64
	queueWait, jobSeconds            float64
}

func readCounters() counters {
	c := counters{
		nodes:         milp.TotalNodes(),
		zonesReused:   incr.ZonesReused(),
		zonesResolved: incr.ZonesResolved(),
	}
	c.warmStarts, c.coldFallbacks = lp.WarmStats()
	for _, h := range obs.Default.Histograms() {
		switch h.Name() {
		case "sag_lp_pivots_per_solve":
			c.pivots = h.Sum()
		case "sag_queue_wait_seconds":
			c.queueWait = h.Sum()
		case "sag_job_latency_seconds":
			c.jobSeconds = h.Sum()
		}
	}
	return c
}

func (c counters) since(prev counters) counters {
	return counters{
		nodes:         c.nodes - prev.nodes,
		warmStarts:    c.warmStarts - prev.warmStarts,
		coldFallbacks: c.coldFallbacks - prev.coldFallbacks,
		pivots:        c.pivots - prev.pivots,
		zonesReused:   c.zonesReused - prev.zonesReused,
		zonesResolved: c.zonesResolved - prev.zonesResolved,
		queueWait:     c.queueWait - prev.queueWait,
		jobSeconds:    c.jobSeconds - prev.jobSeconds,
	}
}

// memDelta accumulates Go runtime allocation and GC pause deltas around the
// calls under measurement.
type memDelta struct {
	allocBytes, mallocs, pauseNS uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (d *memDelta) add(before, after *runtime.MemStats) {
	d.allocBytes += after.TotalAlloc - before.TotalAlloc
	d.mallocs += after.Mallocs - before.Mallocs
	d.pauseNS += after.PauseTotalNs - before.PauseTotalNs
}

// setLayerCounters reports the solver-effort metrics shared by every
// workload. solves is the number of pipeline runs c covers (resolves of
// them incremental), opSeconds their summed wall time and l the fold of
// their span trees.
func setLayerCounters(r *report, c counters, l ledger, solves, resolves int, opSeconds float64) {
	n := float64(max(solves, 1))
	r.set("lp.pivots", "count", c.pivots/n)
	r.set("lp.pivots_per_node", "count", ratio(c.pivots, float64(c.nodes)))
	r.set("lp.cold_fallbacks", "count", float64(c.coldFallbacks)/n)
	bnb := l.total("bnb")
	r.set("milp.nodes", "count", float64(c.nodes)/n)
	r.set("milp.warm_ratio", "ratio", ratio(float64(c.warmStarts), float64(c.nodes)))
	r.set("milp.bnb_s", "s", bnb/n)
	r.set("milp.bnb_share", "ratio", ratio(bnb, opSeconds))
	r.set("milp.nodes_per_s", "1/s", ratio(float64(c.nodes), bnb))
	r.set("milp.s_per_node", "s", ratio(bnb, float64(c.nodes)))
	r.set("lower.zone_partition_s", "s", l.total("zone_partition")/n)
	r.set("lower.zones", "count", l.attr("zone_partition", "zones")/n)
	r.set("lower.coverage_s", "s", l.total("coverage")/n)
	r.set("lower.coverage_self_s", "s", (l.total("coverage")-bnb)/n)
	r.set("lower.power_s", "s", l.total("coverage_power")/n)
	r.set("lower.pro_rounds", "count", l.attr("pro", "rounds")/n)
	r.set("upper.tree_build_s", "s", l.total("tree_build")/n)
	r.set("upper.ucpo_s", "s", l.total("ucpo")/n)
	r.set("incr.zones_reused", "count", ratio(float64(c.zonesReused), float64(resolves)))
	r.set("incr.zones_resolved", "count", ratio(float64(c.zonesResolved), float64(resolves)))
	r.set("incr.reuse_ratio", "ratio", ratio(float64(c.zonesReused), float64(c.zonesReused+c.zonesResolved)))
}

// setGoMetrics reports allocation and GC cost per measured operation.
func setGoMetrics(r *report, d memDelta, ops int) {
	n := float64(max(ops, 1))
	r.set("go.alloc_bytes_per_op", "B", float64(d.allocBytes)/n)
	r.set("go.mallocs_per_op", "count", float64(d.mallocs)/n)
	r.set("go.gc_pause_s", "s", float64(d.pauseNS)/1e9)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
