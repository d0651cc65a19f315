package exp

import (
	"fmt"
	"io"
	"sort"
	"time"

	"oipa/internal/core"
	"oipa/internal/gen"
	"oipa/internal/topic"
)

// Row is one data point of a figure: a (dataset, method, x) triple with
// the measured utility and solver runtime (sampling excluded, as in the
// paper's efficiency comparisons).
type Row struct {
	Dataset string
	Method  string
	Param   string  // the swept parameter's name: "k", "l", "beta/alpha", "eps"
	X       float64 // the swept parameter's value
	Utility float64
	Seconds float64
}

// Methods in paper order.
const (
	MethodIM   = "IM"
	MethodTIM  = "TIM"
	MethodBAB  = "BAB"
	MethodBABP = "BAB-P"
)

// maxSearchNodes bounds branch-and-bound expansions in harness runs so a
// pathological instance degrades to an anytime answer instead of stalling
// a whole sweep. Within the cap both searches report their true certified
// upper bound.
const maxSearchNodes = 2000

// runMethods executes the four compared methods on one instance and
// returns their rows. epsilon parametrizes BAB-P.
func runMethods(dataset string, inst *core.Instance, param string, x float64, epsilon float64, methods []string) ([]Row, error) {
	rows := make([]Row, 0, len(methods))
	for _, m := range methods {
		var res *core.Result
		var err error
		switch m {
		case MethodIM:
			res, err = core.SolveIM(inst, 0xA11CE)
		case MethodTIM:
			res, err = core.SolveTIM(inst)
		case MethodBAB:
			opts := core.DefaultBABOptions()
			opts.MaxNodes = maxSearchNodes
			res, err = core.SolveBAB(inst, opts)
		case MethodBABP:
			opts := core.DefaultBABOptions()
			opts.Epsilon = epsilon
			opts.MaxNodes = maxSearchNodes
			res, err = core.SolveBABP(inst, opts)
		default:
			return nil, fmt.Errorf("exp: unknown method %q", m)
		}
		if err != nil {
			return nil, fmt.Errorf("exp: %s on %s (%s=%v): %w", m, dataset, param, x, err)
		}
		rows = append(rows, Row{
			Dataset: dataset,
			Method:  m,
			Param:   param,
			X:       x,
			Utility: res.Utility,
			Seconds: res.Elapsed.Seconds(),
		})
	}
	return rows, nil
}

// AllMethods lists the four compared methods in paper order.
func AllMethods() []string {
	return []string{MethodIM, MethodTIM, MethodBAB, MethodBABP}
}

// SummaryRow is one row of Table III.
type SummaryRow struct {
	gen.Summary
	SampleSeconds float64
	Theta         int
}

// TableIII builds each configured dataset, draws its MRR samples, and
// reports the statistics row of the paper's Table III (plus the measured
// per-edge topic sparsity).
func TableIII(cfgs []Config) ([]SummaryRow, error) {
	rows := make([]SummaryRow, 0, len(cfgs))
	for _, c := range cfgs {
		w, err := BuildWorkload(c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SummaryRow{
			Summary:       w.Dataset.Summarize(),
			SampleSeconds: w.Instance.SampleTime.Seconds(),
			Theta:         c.Theta,
		})
	}
	return rows, nil
}

// Figure3 sweeps the progressive threshold decay ε for BAB-P on one
// dataset (paper Fig. 3: utility degrades mildly as ε grows).
func Figure3(c Config, epsilons []float64) ([]Row, error) {
	w, err := BuildWorkload(c)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, eps := range epsilons {
		r, err := runMethods(w.Dataset.Name, w.Instance, "eps", eps, eps, []string{MethodBABP})
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Figure4 sweeps the budget k for all four methods (paper Fig. 4: utility
// grows with k for everyone; BAB ≈ BAB-P ≫ TIM > IM; BAB-P's runtime
// advantage over BAB grows with k).
func Figure4(c Config, ks []int) ([]Row, error) {
	w, err := BuildWorkload(c)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, k := range ks {
		inst, err := w.Instance.WithK(k)
		if err != nil {
			return nil, err
		}
		r, err := runMethods(w.Dataset.Name, inst, "k", float64(k), c.Epsilon, AllMethods())
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Figure5 sweeps the number of viral pieces ℓ (paper Fig. 5: utility
// grows with ℓ; IM/TIM degrade relative to BAB since they optimize a
// single piece). Each ℓ needs fresh MRR samples, but the dataset and
// the per-piece layouts are shared: campaigns are *nested* — the
// ℓ-piece campaign is a prefix of the largest one, so utilities are
// comparable across the sweep — and every sub-campaign preparation is
// derived from the base workload, hitting its layout cache instead of
// regenerating the graph and rebuilding identical layouts per point.
func Figure5(c Config, ls []int) ([]Row, error) {
	maxL := 0
	for _, l := range ls {
		if l > maxL {
			maxL = l
		}
	}
	if maxL == 0 {
		return nil, fmt.Errorf("exp: empty l sweep")
	}
	cm := c
	cm.L = maxL
	base, err := BuildWorkload(cm) // also fixes the full campaign's pieces
	if err != nil {
		return nil, err
	}
	full := base.Campaign
	var rows []Row
	for _, l := range ls {
		cl := c
		cl.L = l
		var w *Workload
		if l == maxL {
			w = base
		} else {
			sub := topic.Campaign{Name: full.Name, Pieces: full.Pieces[:l]}
			w, err = base.DeriveCampaign(cl, sub)
			if err != nil {
				return nil, err
			}
		}
		r, err := runMethods(w.Dataset.Name, w.Instance, "l", float64(l), c.Epsilon, AllMethods())
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Figure6 sweeps the β/α ratio (paper Fig. 6: utilities rise with β/α;
// BAB's relative advantage over the baselines grows as β/α shrinks).
// Samples are reused across points: the influence model is independent of
// the adoption model.
func Figure6(c Config, ratios []float64) ([]Row, error) {
	w, err := BuildWorkload(c)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, ratio := range ratios {
		cr := c
		cr.BetaOverAlpha = ratio
		inst, err := w.Instance.WithModel(cr.Model())
		if err != nil {
			return nil, err
		}
		r, err := runMethods(w.Dataset.Name, inst, "beta/alpha", ratio, c.Epsilon, AllMethods())
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// SpeedupRow reports BAB-P's speedup over BAB at one sweep point.
type SpeedupRow struct {
	Dataset string
	X       float64
	Speedup float64
}

// Speedups derives the BAB/BAB-P runtime ratios from figure rows. The
// paper quotes maxima of 24×, 22×, 8.1× on lastfm, dblp, tweet: the cost
// of Algorithm 2 rescanning every candidate per pick. This engine's BAB
// bounds are lazy and frontier-fed like BAB-P's, so its ratio sits near 1.
func Speedups(rows []Row) []SpeedupRow {
	type key struct {
		dataset string
		x       float64
	}
	bab := map[key]float64{}
	babp := map[key]float64{}
	for _, r := range rows {
		k := key{r.Dataset, r.X}
		switch r.Method {
		case MethodBAB:
			bab[k] = r.Seconds
		case MethodBABP:
			babp[k] = r.Seconds
		}
	}
	var out []SpeedupRow
	for k, tb := range bab {
		tp, ok := babp[k]
		if !ok || tp <= 0 {
			continue
		}
		out = append(out, SpeedupRow{Dataset: k.dataset, X: k.x, Speedup: tb / tp})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dataset != out[j].Dataset {
			return out[i].Dataset < out[j].Dataset
		}
		return out[i].X < out[j].X
	})
	return out
}

// RenderRows prints figure rows as an aligned text table grouped by
// dataset and sweep value.
func RenderRows(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "== %s ==\n", title)
	if len(rows) == 0 {
		fmt.Fprintln(w, "(no rows)")
		return
	}
	fmt.Fprintf(w, "%-10s %-12s %8s %12s %12s\n", "dataset", r0(rows).Param, "method", "utility", "seconds")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-12.3g %8s %12.3f %12.4f\n", r.Dataset, r.X, r.Method, r.Utility, r.Seconds)
	}
}

func r0(rows []Row) Row { return rows[0] }

// RenderTableIII prints the dataset summary table.
func RenderTableIII(w io.Writer, rows []SummaryRow) {
	fmt.Fprintln(w, "== Table III: dataset statistics ==")
	fmt.Fprintf(w, "%-10s %10s %10s %8s %7s %9s %7s %12s\n",
		"dataset", "vertices", "edges", "avgdeg", "topics", "edgennz", "theta", "sample(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10d %10d %8.2f %7d %9.2f %7d %12.3f\n",
			r.Name, r.Vertices, r.Edges, r.AvgDegree, r.Topics, r.TopicNNZ, r.Theta, r.SampleSeconds)
	}
}

// RenderSpeedups prints the speedup table.
func RenderSpeedups(w io.Writer, rows []SpeedupRow) {
	fmt.Fprintln(w, "== BAB-P speedup over BAB ==")
	fmt.Fprintf(w, "%-10s %8s %10s\n", "dataset", "x", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8.3g %9.1fx\n", r.Dataset, r.X, r.Speedup)
	}
}

// ParamsTable renders the paper's Table IV parameter grid.
func ParamsTable(w io.Writer) {
	fmt.Fprintln(w, "== Table IV: experiment parameters ==")
	fmt.Fprintln(w, "k          10, 20, ..., 50*, ..., 100")
	fmt.Fprintln(w, "l          1, 2, 3*, 4, 5")
	fmt.Fprintln(w, "beta/alpha 0.3, 0.5*, 0.7")
	fmt.Fprintln(w, "eps        0.1, 0.2, ..., 0.5*, ..., 0.9")
	fmt.Fprintln(w, "(* = default; beta fixed to 1; promoter pool = 10% of users)")
}

// Elapsed is a small helper used by the CLI to report wall-clock phases.
func Elapsed(start time.Time) string { return time.Since(start).Round(time.Millisecond).String() }
