package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// environment is the stanza every results file opens with: enough to
// tell whether two files may be compared at all.
type environment struct {
	Commit         string  `json:"commit"`
	GoVersion      string  `json:"go_version"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NumCPU         int     `json:"num_cpu"`
	Oversubscribed bool    `json:"oversubscribed"` // NumCPU < 2: the two-worker BAB row measures time-slicing
	Kernel         string  `json:"kernel"`
	BuildS         float64 `json:"build_s"`
	Graph          struct {
		Preset string `json:"preset"`
		Scale  string `json:"scale"`
		Seed   string `json:"seed"`
		N      int    `json:"n"`
		M      int    `json:"m"`
		Z      int    `json:"z"`
	} `json:"graph"`
	WorkloadSeed uint64 `json:"workload_seed"`
	RunSeconds   int    `json:"run_seconds"`
	Repetitions  int    `json:"repetitions"`
}

func (h *harness) environment(seed uint64, seconds int) environment {
	env := environment{
		Commit:         "unknown",
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		Oversubscribed: runtime.NumCPU() < 2,
		Kernel:         "unknown",
		BuildS:         h.buildS,
		WorkloadSeed:   seed,
		RunSeconds:     seconds,
		Repetitions:    repetitions,
	}
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = h.root
	if out, err := git.Output(); err == nil { // a checkout without .git stays "unknown"
		env.Commit = strings.TrimSpace(string(out))
	}
	if out, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(out))
	}
	env.Graph.Preset, env.Graph.Scale, env.Graph.Seed = graphPreset, graphScale, graphSeed
	env.Graph.N, env.Graph.M, env.Graph.Z = h.g.N(), h.g.M(), h.g.Z()
	return env
}

// aggregate is one end-to-end metric over the repetitions of a workload:
// the median of the repetition values (the maximum for rss_peak_mb) and
// their (max−min)/median spread.
type aggregate struct {
	Reading float64   `json:"reading"`
	Spread  float64   `json:"spread"`
	Unit    string    `json:"unit"`
	Values  []float64 `json:"values"`
}

func aggregateMetric(d metricDef, vals []float64) aggregate {
	a := aggregate{Reading: median(vals), Spread: spread(vals), Unit: d.Unit, Values: vals}
	if d.Peak {
		a.Reading = maxOf(vals)
	}
	return a
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Clients       int                  `json:"clients"`
	Requests      []int                `json:"requests"` // attempted, per repetition
	TraceRequests int                  `json:"trace_requests"`
	Attempted     int                  `json:"attempted"`
	Failed        int                  `json:"failed"`
	FailShare     float64              `json:"fail_share"`
	Correct       bool                 `json:"correct"`
	EndToEnd      map[string]aggregate `json:"end_to_end"`
	PerLayer      map[string]value     `json:"per_layer"` // serve readings of the traced pass
	Runs          []*runResult         `json:"runs"`
}

// results is the file -out writes and -compare reads.
type results struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Layers    map[string]value           `json:"layers"` // layer replay: the same for every workload
}

// summarize folds a workload's timed runs and its traced run.
func summarize(w *workload, timed []*runResult, traced *runResult) *workloadResult {
	wr := &workloadResult{Clients: w.Clients, Correct: true, EndToEnd: map[string]aggregate{}}
	wr.Runs = append(append(wr.Runs, timed...), traced)
	for _, r := range wr.Runs {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.Correct = wr.Correct && r.correct()
	}
	wr.FailShare = float64(wr.Failed) / float64(max(wr.Attempted, 1))
	wr.TraceRequests = traced.Attempted
	wr.PerLayer, _ = pick(perLayer, traced.Metrics)
	for _, r := range timed {
		wr.Requests = append(wr.Requests, r.Attempted)
	}
	for _, d := range endToEnd {
		var vals []float64
		for _, r := range timed {
			vals = append(vals, r.Metrics[d.Name])
		}
		wr.EndToEnd[d.Name] = aggregateMetric(d, vals)
	}
	return wr
}

func writeJSONFile(path string, v interface{}) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printTable prints every metric by name with its unit.
func printTable(out io.Writer, r *results) {
	e := r.Env
	fmt.Fprintf(out, "commit %s  %s  GOMAXPROCS %d  NumCPU %d  kernel %s  build_s %.2f\n", e.Commit, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.Kernel, e.BuildS)
	fmt.Fprintf(out, "graph %s x%s seed %s: n=%d m=%d z=%d  workload seed %d  %d s x %d repetitions\n\n",
		e.Graph.Preset, e.Graph.Scale, e.Graph.Seed, e.Graph.N, e.Graph.M, e.Graph.Z, e.WorkloadSeed, e.RunSeconds, e.Repetitions)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, w := range workloads {
		wr := r.Workloads[w.Name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(tw, "%s\tclients %d\trequests %v\ttraced %d\tfail_share %g\t\n", w.Name, wr.Clients, wr.Requests, wr.TraceRequests, wr.FailShare)
		for _, d := range endToEnd {
			if a, ok := wr.EndToEnd[d.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%.4f\t%s\tspread %.1f%%\tbound %.0f%%\t\n", d.Name, a.Reading, a.Unit, 100*a.Spread, 100*d.Bound)
			}
		}
		for _, d := range perLayer {
			if v, ok := wr.PerLayer[d.Name]; ok {
				note := ""
				if d.Name == "serve.req_p95_ms" && wr.PerLayer["serve.req_p95_beyond"].Value < 10 {
					note = "fewer than 10 samples beyond it"
				}
				fmt.Fprintf(tw, "  %s\t%.4f\t%s\t%s\t\t\n", d.Name, v.Value, v.Unit, note)
			}
		}
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(tw, "layers\t\t\t\t\t\n")
		for _, d := range perLayer {
			v, ok := r.Layers[d.Name]
			switch {
			case !ok:
			case d.Name == "core.solve_bab_w2_ms" && e.Oversubscribed:
				fmt.Fprintf(tw, "  %s\toversubscribed: true\t\t\t\t\n", d.Name)
			default:
				fmt.Fprintf(tw, "  %s\t%.4f\t%s\t\t\t\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	tw.Flush()
}

// Verdicts of -compare.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening is how far b's reading is on the wrong side of a's, as a
// share of a's: positive means worse, whatever the metric's direction.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	delta := (b - a) / a
	if d.Better == "higher" {
		delta = -delta
	}
	return delta
}

// verdict judges one end-to-end metric of one workload. Within the bound
// is "same". Beyond it the direction decides — unless either side's
// repetitions spread wider than the bound, when only a clean separation
// (every run of one side beyond every run of the other) resolves it.
func verdict(d metricDef, a, b aggregate) string {
	delta, bound := worsening(d, a.Reading, b.Reading), d.boundAt(a.Reading)
	if a.Spread > bound || b.Spread > bound {
		switch {
		case separated(d, a.Values, b.Values) && delta < 0:
			return verdictBetter
		case separated(d, b.Values, a.Values) && delta > bound:
			return verdictWorse
		}
		return verdictUnresolved
	}
	switch {
	case delta > bound:
		return verdictWorse
	case delta < -bound:
		return verdictBetter
	}
	return verdictSame
}

// separated reports whether every value of good reads better than every
// value of bad.
func separated(d metricDef, bad, good []float64) bool {
	if len(bad) == 0 || len(good) == 0 {
		return false
	}
	if d.Better == "higher" {
		return minOf(good) > maxOf(bad)
	}
	return maxOf(good) < minOf(bad)
}

// compare prints one row per (workload, end-to-end metric) and one per
// exact count that differs, and reports whether b regressed: any
// "worse" row or a higher fail_share.
func compare(out io.Writer, a, b *results) (regressed bool) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta\tspread\tb\tspread\tdelta\tbound\tverdict\t\n")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(d, ma, mb)
			regressed = regressed || v == verdictWorse
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s\t%.1f%%\t%.4f %s\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\t\n",
				w.Name, d.Name, ma.Reading, ma.Unit, 100*ma.Spread, mb.Reading, mb.Unit, 100*mb.Spread,
				100*(mb.Reading-ma.Reading)/ma.Reading, 100*d.boundAt(ma.Reading), v)
		}
		v := verdictSame
		if wb.FailShare > wa.FailShare {
			v, regressed = verdictWorse, true
		}
		fmt.Fprintf(tw, "%s\tfail_share\t%g\t\t%g\t\t\t0%%\t%s\t\n", w.Name, wa.FailShare, wb.FailShare, v)
	}
	tw.Flush()

	// Exact counts repeat bit for bit for one seed; any difference is a
	// change in the work done, whatever the clock says.
	var rows []string
	exact := func(scope string, va, vb map[string]value) {
		for _, d := range perLayer {
			x, okA := va[d.Name]
			y, okB := vb[d.Name]
			if d.Exact && okA && okB && x.Value != y.Value {
				rows = append(rows, fmt.Sprintf("%s\t%s\t%s\t%s\t%s\tdiffers\t\n", scope, d.Name,
					strconv.FormatFloat(x.Value, 'f', -1, 64), strconv.FormatFloat(y.Value, 'f', -1, 64), x.Unit))
			}
		}
	}
	exact("layers", a.Layers, b.Layers)
	for _, w := range workloads {
		if wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]; wa != nil && wb != nil {
			exact(w.Name, wa.PerLayer, wb.PerLayer)
		}
	}
	sort.Strings(rows)
	if a.Env.WorkloadSeed != b.Env.WorkloadSeed || a.Env.RunSeconds != b.Env.RunSeconds {
		fmt.Fprintf(out, "\nexact counts not compared: the files differ in workload seed or run seconds\n")
	} else if len(rows) == 0 {
		fmt.Fprintf(out, "\nexact counts: all equal\n")
	} else {
		fmt.Fprintf(out, "\nexact counts that differ:\n")
		tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "scope\tmetric\ta\tb\tunit\t\t\n%s", strings.Join(rows, ""))
		tw.Flush()
	}
	return regressed
}
