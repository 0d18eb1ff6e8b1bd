package monitor

import (
	"encoding/json"
	"io"
	"math"
)

// timingStatJSON is TimingStat's wire form. Extrema are guarded for the
// empty case (a declared-but-unobserved point must not ship ±Inf, which
// encoding/json rejects and which used to silently break the writer's
// online report shipping), quantiles are precomputed for consumers that
// don't want the buckets, and the histogram travels sparsely as
// [bucket, count] pairs.
type timingStatJSON struct {
	Count int64      `json:"count"`
	Total float64    `json:"total"`
	Min   float64    `json:"min"`
	Max   float64    `json:"max"`
	P50   float64    `json:"p50"`
	P95   float64    `json:"p95"`
	P99   float64    `json:"p99"`
	Hist  [][2]int64 `json:"hist,omitempty"`
}

// MarshalJSON implements json.Marshaler with the empty-stat guard.
func (s TimingStat) MarshalJSON() ([]byte, error) {
	j := timingStatJSON{Count: s.Count, Total: s.Total}
	if s.Count > 0 {
		j.Min = finiteOrZero(s.Min)
		j.Max = finiteOrZero(s.Max)
		j.P50 = s.P50()
		j.P95 = s.P95()
		j.P99 = s.P99()
	}
	for b, n := range s.Hist {
		if n != 0 {
			j.Hist = append(j.Hist, [2]int64{int64(b), n})
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON restores a stat, including the internal ±Inf extrema
// invariant for the empty case so later merges compare correctly.
func (s *TimingStat) UnmarshalJSON(data []byte) error {
	var j timingStatJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = TimingStat{Count: j.Count, Total: j.Total, Min: j.Min, Max: j.Max}
	if j.Count == 0 {
		s.Min = math.Inf(1)
		s.Max = math.Inf(-1)
	}
	for _, bc := range j.Hist {
		if bc[0] >= 0 && bc[0] < HistBuckets {
			s.Hist[bc[0]] = bc[1]
		}
	}
	return nil
}

// WriteJSON emits the machine-readable report (metrics.json): every
// timing point with count/total/extrema/P50/P95/P99 and sparse histogram
// buckets, plus volumes, counters, gauges and memory.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
