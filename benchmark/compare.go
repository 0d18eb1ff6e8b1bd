package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// which is what the benchmark's acceptance is computed with.
func quartiles(values []float64) (q1, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs) // at least 2: spread guards
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(s *series) float64 {
	if len(s.Values) < 2 || s.Median == 0 {
		return 0
	}
	q1, q3 := quartiles(s.Values)
	return (q3 - q1) / s.Median
}

// worse is how far b's median is on the wrong side of a's, as a share of
// a's; negative when b is better.
func worse(a, b *series) float64 {
	d := (b.Median - a.Median) / a.Median
	if a.Better == "higher" {
		d = -d
	}
	return d
}

// allBetter reports whether every run of b reads better than every run
// of a: the one case where a spread wider than the bound still resolves.
func allBetter(a, b *series) bool {
	amin, amax := a.Values[0], a.Values[0]
	for _, v := range a.Values {
		amin, amax = min(amin, v), max(amax, v)
	}
	for _, v := range b.Values {
		if a.Better == "higher" && v <= amax || a.Better != "higher" && v >= amin {
			return false
		}
	}
	return true
}

func verdict(a, b *series) string {
	switch {
	case max(spread(a), spread(b)) > a.Bound:
		if allBetter(a, b) {
			return "ok"
		}
		return "unresolved"
	case worse(a, b) > a.Bound:
		return "regressed"
	}
	return "ok"
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse B is than A, the spreads, the bound and the verdict. It
// reports whether any metric regressed.
func compareFiles(stdout io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tunit\tworse by\tspread A\tspread B\tbound\tverdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, w := range b.Workloads {
			if w.Name == wa.Name {
				wb = w
			}
		}
		if wb == nil {
			continue
		}
		for _, mt := range endToEnd {
			sa, sb := wa.EndToEnd[mt.name], wb.EndToEnd[mt.name]
			if sa == nil || sb == nil {
				continue
			}
			v := verdict(sa, sb)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%s\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wa.Name, mt.name, sa.Median, sb.Median, sa.Unit,
				worse(sa, sb)*100, spread(sa)*100, spread(sb)*100, sa.Bound*100, v)
		}
	}
	return regressed, tw.Flush()
}
