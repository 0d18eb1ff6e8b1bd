// Package experiment contains one driver per table/figure of the FlexIO
// paper's evaluation (Section IV plus Figure 4 from Section II). Each
// driver assembles the machines, application models, placements and
// runtime options, runs the coupled-execution simulator or the transport
// microbenchmarks, and returns the same rows/series the paper reports.
// The cmd/flexbench binary and the repo-root benchmarks are thin wrappers
// over these functions.
package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is the regenerated artifact: series plus free-form notes (used
// for the headline-claims checks).
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Fprint renders the figure as aligned text tables.
func (f *Figure) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title); err != nil {
		return err
	}
	if len(f.Series) > 0 {
		// Collect the union of X values (columns).
		xsSet := map[float64]bool{}
		for _, s := range f.Series {
			for _, x := range s.X {
				xsSet[x] = true
			}
		}
		xs := make([]float64, 0, len(xsSet))
		for x := range xsSet {
			xs = append(xs, x)
		}
		sort.Float64s(xs)
		fmt.Fprintf(w, "%-36s", f.XLabel+" \\ "+f.YLabel)
		for _, x := range xs {
			fmt.Fprintf(w, "%12.6g", x)
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w, strings.Repeat("-", 36+12*len(xs)))
		for _, s := range f.Series {
			fmt.Fprintf(w, "%-36s", s.Label)
			byX := map[float64]float64{}
			for i := range s.X {
				byX[s.X[i]] = s.Y[i]
			}
			for _, x := range xs {
				if y, ok := byX[x]; ok {
					fmt.Fprintf(w, "%12.5g", y)
				} else {
					fmt.Fprintf(w, "%12s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
	return nil
}

// Options carries the run-time settings some drivers take;
// cmd/flexbench fills it from its flags.
type Options struct {
	// MetricsAddr is where the trace drill serves live monitoring
	// ("127.0.0.1:0" picks a free port, "" disables).
	MetricsAddr string
	// Perturb injects a model change into the replay drill's second run,
	// which must then be detected as a divergence.
	Perturb bool
}

// Driver is one registered experiment: a one-line description for
// `flexbench -list` plus the function that regenerates its figure.
type Driver struct {
	Desc string
	Run  func(Options) (*Figure, error)
}

// plain adapts a driver that takes no options.
func plain(run func() (*Figure, error)) func(Options) (*Figure, error) {
	return func(Options) (*Figure, error) { return run() }
}

// Registry maps experiment ids to drivers.
var Registry = map[string]Driver{
	"fig4":      {"RDMA vs TCP transport microbenchmark (paper Fig. 4)", plain(Fig4)},
	"fig6a":     {"GTS coupled-run slowdown on Smoky (paper Fig. 6a)", plain(func() (*Figure, error) { return Fig6("Smoky") })},
	"fig6b":     {"GTS coupled-run slowdown on Titan (paper Fig. 6b)", plain(func() (*Figure, error) { return Fig6("Titan") })},
	"fig7":      {"GTS analytics placement sweep (paper Fig. 7)", plain(Fig7)},
	"fig8":      {"S3D coupled-run slowdown (paper Fig. 8)", plain(Fig8)},
	"fig9a":     {"S3D analytics placement sweep on Smoky (paper Fig. 9a)", plain(func() (*Figure, error) { return Fig9("Smoky") })},
	"fig9b":     {"S3D analytics placement sweep on Titan (paper Fig. 9b)", plain(func() (*Figure, error) { return Fig9("Titan") })},
	"s3dtune":   {"S3D helper-core thread tuning table", plain(S3DTuning)},
	"claims":    {"headline paper claims checked against the model", plain(Claims)},
	"reconfig":  {"mid-run reader regrouping drill: writer drain and reader wall time per N -> N' delta", plain(ReconfigBench)},
	"trace":     {"one-record-stream drill: traced live stream + coupled critical paths, emitting trace/metrics/journal/critpath JSON", func(o Options) (*Figure, error) { return TraceRun(".", o.MetricsAddr) }},
	"replay":    {"deterministic replay divergence check", func(o Options) (*Figure, error) { return ReplayRun(o.Perturb) }},
	"multiproc": {"multi-process deployment drill over TCP (directory server + flexnode daemons)", plain(Multiproc)},
	"tenants":   {"multi-tenant soak: shared pool, per-tenant quotas/backpressure, mid-run grow+shrink", plain(Tenants)},
	"fleetobs":  {"fleet observability drill: collector scrapes 4 daemons, stitches cross-process traces, SLO breach drives a resize", plain(Fleetobs)},
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// RunAll executes every experiment and prints each figure.
func RunAll(w io.Writer, opts Options) error {
	for _, id := range IDs() {
		fig, err := Registry[id].Run(opts)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		if err := fig.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}
