package main

import (
	"sort"
	"strconv"

	"sagrelay/internal/obs"
)

// stageTime accumulates one span name across folded span trees.
type stageTime struct {
	// Total sums the durations of every span with this name, in seconds.
	Total float64
	// Self sums, per span, the part of its interval that none of its child
	// spans covers. Children that run in parallel overlap, so the covered
	// part is the union of their intervals, never the sum of their lengths.
	Self float64
	// attrSum sums the numeric attributes of those spans (zones, rounds,
	// pivots), keyed by attribute name.
	attrSum map[string]float64
}

// ledger is the per-stage fold of any number of span trees.
type ledger map[string]*stageTime

// fold adds d and every span below it to the ledger.
func (l ledger) fold(d *obs.SpanDoc) {
	if d == nil {
		return
	}
	st := l[d.Name]
	if st == nil {
		st = &stageTime{attrSum: map[string]float64{}}
		l[d.Name] = st
	}
	for k, v := range d.Attrs {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			st.attrSum[k] += f
		}
	}
	kids := make([]interval, 0, len(d.Spans))
	for _, c := range d.Spans {
		kids = append(kids, interval{c.StartNS, c.StartNS + c.DurNS})
		l.fold(c)
	}
	st.Total += seconds(d.DurNS)
	st.Self += seconds(d.DurNS - covered(kids, d.StartNS, d.StartNS+d.DurNS))
}

// total returns the summed duration of the named stage (0 when absent).
func (l ledger) total(name string) float64 {
	if st := l[name]; st != nil {
		return st.Total
	}
	return 0
}

// attr returns the summed numeric attribute key of the named stage.
func (l ledger) attr(name, key string) float64 {
	if st := l[name]; st != nil {
		return st.attrSum[key]
	}
	return 0
}

// leafStages are the pipeline stages whose spans attribute a solve's wall
// time: the per-layer breakdown names them, and obs.attributed_ratio is the
// share of wall time their union covers.
var leafStages = map[string]bool{
	"zone_partition": true, "zone": true, "bnb": true, "pro": true,
	"lpqc": true, "tree_build": true, "ucpo": true,
}

// attributed returns how many nanoseconds of d's own interval the spans
// named in names (at any depth below d) cover together.
func attributed(d *obs.SpanDoc, names map[string]bool) int64 {
	var iv []interval
	var walk func(*obs.SpanDoc)
	walk = func(s *obs.SpanDoc) {
		for _, c := range s.Spans {
			if names[c.Name] {
				iv = append(iv, interval{c.StartNS, c.StartNS + c.DurNS})
			}
			walk(c)
		}
	}
	walk(d)
	return covered(iv, d.StartNS, d.StartNS+d.DurNS)
}

type interval struct{ lo, hi int64 }

// covered returns the length of [lo, hi) that the union of iv covers.
func covered(iv []interval, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var n int64
	cur := lo
	for _, x := range iv {
		a, b := max(x.lo, cur), min(x.hi, hi)
		if b > a {
			n += b - a
			cur = b
		}
	}
	return n
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
