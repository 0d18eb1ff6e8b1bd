// Package gate is the one regression gate behind every package's
// TestGates: it loads the budgets in gates.json at the module root,
// measures each row a package names, logs every reading and fails the
// test on any row past its bound. Only tests import it.
//
// A timed row runs its op and its reference interleaved in ~2 ms chunks
// and takes each side's 10th-percentile chunk on its own before combining
// them: other tenants only add time, to whichever side is running, and a
// low quantile of per-chunk ratios would pick exactly the chunks in which
// the reference was slowed. A timed row over its bound is read up to
// twice more, retryPause apart, and judged on its best reading.
// Allocation rows are exact counts from one reading.
package gate

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// Op runs n iterations of a measured loop.
type Op func(n int)

// Row is one gated number in gates.json.
type Row struct {
	Bound   float64 `json:"bound"`
	Ref     string  `json:"ref,omitempty"` // what a paired row is measured against
	SetFrom float64 `json:"set_from"`      // the reading the bound was set from
	Date    string  `json:"date"`          // the day of that reading
}

// Measure reads one gated number: a timed row reduces its op's and its
// reference's chunk readings; a row without a reduction counts allocations.
type Measure struct {
	op, ref Op
	reduce  func(ops, refs []float64) float64
}

// Ns reads op's time per iteration, unpaired.
func Ns(op Op) Measure {
	return Measure{op: op, reduce: func(ops, _ []float64) float64 { return quantile(ops) }}
}

// Overhead reads op's time per iteration minus ref's, floored at zero.
func Overhead(op, ref Op) Measure {
	return Measure{op, ref, func(ops, refs []float64) float64 { return math.Max(0, quantile(ops)-quantile(refs)) }}
}

// Ratio reads op's time per iteration over ref's.
func Ratio(op, ref Op) Measure {
	return Measure{op, ref, func(ops, refs []float64) float64 { return quantile(ops) / quantile(refs) }}
}

// Allocs reads op's heap allocations per iteration.
func Allocs(op Op) Measure { return Measure{op: op} }

func (m Measure) read() (float64, string) {
	if m.reduce == nil {
		return testing.AllocsPerRun(100, func() { m.op(1) }), ""
	}
	ops, refs := sample(m.op, m.ref)
	how := fmt.Sprintf(" (op %.1f ns", quantile(ops))
	if m.ref != nil {
		how += fmt.Sprintf(", ref %.1f ns", quantile(refs))
	}
	return m.reduce(ops, refs), how + ")"
}

// Check reads every named row and fails t on any past its bound in
// gates.json.
func Check(t *testing.T, measures map[string]Measure) {
	if testing.Short() || raceEnabled {
		t.Skip("gates need an uninstrumented build and full-length runs")
	}
	rows, err := load()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(measures))
	for name := range measures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := measures[name]
		row, ok := rows[name]
		if !ok || (m.ref != nil) != (row.Ref != "") {
			t.Errorf("%s: gates.json has no row for it, or its ref disagrees with how it is measured", name)
			continue
		}
		v, how := m.read()
		for try := 1; m.reduce != nil && try < 3 && v > row.Bound; try++ {
			time.Sleep(retryPause)
			if w, wHow := m.read(); w < v {
				v, how = w, wHow
			}
		}
		t.Logf("%s = %.4g%s; bound %g, set from %g on %s", name, v, how, row.Bound, row.SetFrom, row.Date)
		if v > row.Bound {
			t.Errorf("%s = %.4g is past its bound %g in gates.json", name, v, row.Bound)
		}
	}
}

// load reads gates.json from the root of the module the test runs in.
func load() (map[string]Row, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		if filepath.Dir(dir) == dir {
			return nil, fmt.Errorf("gate: no go.mod above the test's directory")
		}
		dir = filepath.Dir(dir)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "gates.json"))
	if err != nil {
		return nil, err
	}
	var rows map[string]Row
	if err := json.Unmarshal(blob, &rows); err != nil {
		return nil, fmt.Errorf("gate: gates.json: %w", err)
	}
	return rows, nil
}

const (
	chunk  = 2 * time.Millisecond
	chunks = 100 // per side per reading: the 10th percentile is the 11th fastest
	// retryPause spaces the readings of a row over its bound: the host's
	// slow phases, which can slow an op more than its reference, mostly
	// last under a few seconds.
	retryPause = 2 * time.Second
)

// sample times op and, when ref is non-nil, ref in alternating ~2 ms
// chunks and returns each side's ns per iteration, chunk by chunk.
func sample(op, ref Op) (ops, refs []float64) {
	nOp, nRef := perChunk(op), 0
	if ref != nil {
		nRef = perChunk(ref)
	}
	for i := 0; i < chunks; i++ {
		ops = append(ops, nsPerIter(op, nOp))
		if ref != nil {
			refs = append(refs, nsPerIter(ref, nRef))
		}
	}
	return ops, refs
}

// perChunk finds how many iterations of op fill one chunk.
func perChunk(op Op) int {
	for n := 1; ; n *= 2 {
		start := time.Now()
		op(n)
		if d := time.Since(start); d >= chunk/2 {
			return max(1, int(int64(n)*int64(chunk)/int64(d)))
		}
	}
}

func nsPerIter(op Op, n int) float64 {
	start := time.Now()
	op(n)
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// quantile is the 10th percentile of one side's chunk readings.
func quantile(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/10]
}

var (
	scanWords [4096]uint64
	scanSink  int
)

// Scan is the reference kernel of ratio rows: n passes over a 4 Ki-word
// buffer classifying each word with two well-predicted branches. It holds
// no repository code but has the index code's instruction mix, so it
// slows with that code in the host's slow phases, which a latency-bound
// multiply chain such as an FNV hash does not (DESIGN.md §14).
func Scan(n int) {
	count := 0
	for ; n > 0; n-- {
		for i, w := range scanWords[:] {
			v := w + uint64(i)
			if v >= 1000 && v < 3000 {
				count++
			} else if v&7 == 3 {
				count += 2
			}
		}
	}
	scanSink += count
}
