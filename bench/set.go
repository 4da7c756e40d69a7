package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

const setSchema = "sagbench/set/1"

// setFile is a set of runs: every run's full report, and per workload the
// median, quartiles and spread of every metric.
type setFile struct {
	Schema  string      `json:"schema"`
	Host    hostInfo    `json:"host"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
	// Summary covers the untraced runs, TraceSummary the traced ones.
	Summary      map[string]map[string]summary `json:"summary"`
	TraceSummary map[string]map[string]summary `json:"trace_summary"`
}

type hostInfo struct {
	CPU    string `json:"cpu"`
	NumCPU int    `json:"num_cpu"`
	Go     string `json:"go"`
	OSArch string `json:"os_arch"`
}

type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Exit     int     `json:"exit"`
	When     string  `json:"when"`
	Report   *report `json:"report,omitempty"`
	Result   *result `json:"result,omitempty"`
}

type summary struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

// runSet adds k untraced runs and traces traced runs of every workload to
// the set at path, each run in its own child process. Untraced runs go
// round-robin across the workloads, round r with seed seed+r.
func runSet(ctx context.Context, log io.Writer, path string, seed int64, secs float64, k, traces int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := &setFile{Schema: setSchema, Host: host(), Seconds: secs}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, set); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		if set.Schema != setSchema || set.Seconds != secs {
			return fmt.Errorf("%s holds a set of another schema or run length", path)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}

	type plan struct {
		w     string
		seed  int64
		trace bool
	}
	var plans []plan
	for r := 0; r < k; r++ {
		for _, w := range workloads {
			plans = append(plans, plan{w.name, seed + int64(r), false})
		}
	}
	for t := 0; t < traces; t++ {
		for _, w := range workloads {
			plans = append(plans, plan{w.name, seed + int64(t), true})
		}
	}
	wrong := 0
	for i, p := range plans {
		fmt.Fprintf(log, "bench: set run %d/%d: %s seed %d trace %v\n", i+1, len(plans), p.w, p.seed, p.trace)
		rec := runRecord{Workload: p.w, Seed: p.seed, Trace: p.trace, When: time.Now().UTC().Format(time.RFC3339)}
		trace := "0"
		if p.trace {
			trace = "1"
		}
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, exe,
			"-workload", p.w, "-seed", strconv.FormatInt(p.seed, 10),
			"-seconds", strconv.FormatFloat(secs, 'g', -1, 64),
			"-trace", trace)
		cmd.Stdout, cmd.Stderr = &out, log
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				return fmt.Errorf("run %s: %w", p.w, err)
			}
			rec.Exit = ee.ExitCode()
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		rec.Report, rec.Result = parseRun(out.Bytes())
		if rec.Exit != 0 || rec.Report == nil {
			wrong++
		}
		set.Runs = append(set.Runs, rec)
	}
	set.Summary, set.TraceSummary = summarize(set.Runs, false), summarize(set.Runs, true)
	data, err := json.Marshal(set)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if wrong > 0 {
		return fmt.Errorf("%d of %d runs did not finish correctly: %w", wrong, len(plans), errWrong)
	}
	return nil
}

// parseRun reads a child's report line and result line.
func parseRun(stdout []byte) (*report, *result) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if len(lines) < 2 {
		return nil, nil
	}
	var rep report
	var res result
	if json.Unmarshal([]byte(lines[len(lines)-2]), &rep) != nil || json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil {
		return nil, nil
	}
	return &rep, &res
}

func summarize(runs []runRecord, trace bool) map[string]map[string]summary {
	vals := map[string]map[string]*summary{}
	for _, r := range runs {
		if r.Trace != trace || r.Report == nil {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string]*summary{}
		}
		for name, m := range r.Report.Metrics {
			s := vals[r.Workload][name]
			if s == nil {
				s = &summary{Unit: m.Unit}
				vals[r.Workload][name] = s
			}
			s.Values = append(s.Values, m.Value)
		}
	}
	out := map[string]map[string]summary{}
	for w, ms := range vals {
		out[w] = map[string]summary{}
		for name, s := range ms {
			s.N = len(s.Values)
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			s.Spread = spread(s.Values)
			out[w][name] = *s
		}
	}
	return out
}

func host() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func loadSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if s.Schema != setSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, setSchema)
	}
	return &s, nil
}

// compareSets prints, per workload and metric, both sets' medians and
// quartiles, the paired-run win count of B (runs of one workload with the
// same seed), and for every metric BENCHMARK.json bounds a verdict.
func compareSets(w io.Writer, m *manifest, pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("sets measured %gs and %gs runs; compare equal run lengths", a.Seconds, b.Seconds)
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tB wins\tverdict\n")
	for _, wl := range m.Workloads {
		for _, trace := range []bool{false, true} {
			sa, sb := a.Summary[wl.Name], b.Summary[wl.Name]
			if trace {
				sa, sb = a.TraceSummary[wl.Name], b.TraceSummary[wl.Name]
			}
			for _, name := range metricOrder(m, sa, sb, trace) {
				x, okA := sa[name]
				y, okB := sb[name]
				if !okA || !okB {
					continue
				}
				d, _ := m.lookup(name)
				wins, pairs := pairedWins(a.Runs, b.Runs, wl.Name, name, trace, d.Better)
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%d/%d\t%s\n",
					wl.Name, name, x.Unit, fmtSummary(x), fmtSummary(y),
					100*ratio(y.Median-x.Median, math.Abs(x.Median)), wins, pairs, verdict(d, x, y, wins, pairs))
			}
		}
	}
	return tw.Flush()
}

// metricOrder lists the declared metrics of one kind first, in manifest
// order, then the rest alphabetically.
func metricOrder(m *manifest, sa, sb map[string]summary, trace bool) []string {
	list := m.EndToEnd
	if trace {
		list = m.PerLayer
	}
	seen := map[string]bool{}
	var out, rest []string
	for _, d := range list {
		out = append(out, d.Name)
		seen[d.Name] = true
	}
	for name := range sa {
		if _, ok := sb[name]; ok && !seen[name] {
			if _, declared := m.lookup(name); !declared {
				rest = append(rest, name)
			}
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}

// pairedWins counts the runs of B that read better than the run of A with
// the same workload and seed; ties count for neither side.
func pairedWins(a, b []runRecord, workload, name string, trace bool, better string) (wins, pairs int) {
	value := func(r runRecord) (float64, bool) {
		if r.Workload != workload || r.Trace != trace || r.Report == nil {
			return 0, false
		}
		v, ok := r.Report.Metrics[name]
		return v.Value, ok
	}
	bySeed := map[int64]float64{}
	for _, r := range a {
		if v, ok := value(r); ok {
			bySeed[r.Seed] = v
		}
	}
	for _, r := range b {
		va, okA := bySeed[r.Seed]
		vb, okB := value(r)
		if !okA || !okB {
			continue
		}
		pairs++
		if (better == "lower" && vb < va) || (better == "higher" && vb > va) {
			wins++
		}
	}
	return wins, pairs
}

// verdict judges B against A for a metric with a bound: unresolved when
// either side's spread exceeds the bound (unless every run of B reads
// better than every run of A), regressed when B's median is worse by more
// than the bound, improved when it is better by more than A's spread and B
// wins at least nine tenths of the pairs, unchanged otherwise.
func verdict(d declared, a, b summary, wins, pairs int) string {
	if d.Bound == nil || d.Better == "" {
		return "-"
	}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	worse := sign * ratio(b.Median-a.Median, math.Abs(a.Median))
	if math.Max(a.Spread, b.Spread) > *d.Bound {
		if separated(a.Values, b.Values, sign) {
			return "improved"
		}
		return "unresolved"
	}
	switch {
	case worse > *d.Bound:
		return "regressed"
	case -worse > a.Spread && pairs > 0 && 10*wins >= 9*pairs:
		return "improved"
	}
	return "unchanged"
}

// separated reports whether every value of b reads better than every value
// of a; sign is +1 when lower is better and -1 when higher is.
func separated(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	worstB, bestA := math.Inf(-1), math.Inf(1)
	for _, v := range b {
		worstB = math.Max(worstB, sign*v)
	}
	for _, v := range a {
		bestA = math.Min(bestA, sign*v)
	}
	return worstB < bestA
}
