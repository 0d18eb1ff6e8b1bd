// Package-level benchmarks: one per table/figure of the FlexIO paper's
// evaluation (regenerating the artifact and reporting its headline metric
// as a custom benchmark unit), plus transport micro-benchmarks backing the
// design sections. Run everything with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks measure the experiment drivers in virtual time —
// the reported custom metrics (seconds of Total Execution Time, MB/s of
// modeled bandwidth) are the paper's quantities, while ns/op measures the
// harness itself.
package main

import (
	"fmt"
	"testing"

	"flexio/internal/dcplugin"
	"flexio/internal/evpath"
	"flexio/internal/experiment"
	"flexio/internal/machine"
	"flexio/internal/ndarray"
	"flexio/internal/rdma"
	"flexio/internal/shm"
)

// eventFor wraps a payload as a transport event for plug-in benches.
func eventFor(payload []byte) *evpath.Event {
	return &evpath.Event{Meta: evpath.Record{"var": "zion"}, Data: payload}
}

// figureBench runs an experiment driver and reports series endpoints as
// custom metrics.
func figureBench(b *testing.B, id string, metric func(*experiment.Figure) map[string]float64) {
	b.Helper()
	driver, ok := experiment.Registry[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var fig *experiment.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = driver.Run(experiment.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for name, v := range metric(fig) {
		b.ReportMetric(v, name)
	}
}

// lastY returns the last point of the labelled series.
func lastY(fig *experiment.Figure, label string) float64 {
	for _, s := range fig.Series {
		if s.Label == label && len(s.Y) > 0 {
			return s.Y[len(s.Y)-1]
		}
	}
	return 0
}

// BenchmarkFig4RDMARegistration regenerates Figure 4 and reports the
// modeled bandwidth of each mode at 1 MiB messages.
func BenchmarkFig4RDMARegistration(b *testing.B) {
	figureBench(b, "fig4", func(fig *experiment.Figure) map[string]float64 {
		out := map[string]float64{}
		for _, s := range fig.Series {
			for i, x := range s.X {
				if x == float64(1<<20) {
					key := "dynamic_MB/s"
					switch s.Label {
					case "Static Allocation and Registration":
						key = "static_MB/s"
					case "Registration Cache (FlexIO)":
						key = "cached_MB/s"
					}
					out[key] = s.Y[i]
				}
			}
		}
		return out
	})
}

// BenchmarkFig6GTSSmoky regenerates Figure 6(a) and reports the largest-
// scale Total Execution Times.
func BenchmarkFig6GTSSmoky(b *testing.B) {
	figureBench(b, "fig6a", func(fig *experiment.Figure) map[string]float64 {
		return map[string]float64{
			"inline_s":  lastY(fig, "Inline"),
			"topo_s":    lastY(fig, "HelperCore(TopoAware)"),
			"staging_s": lastY(fig, "Staging"),
			"bound_s":   lastY(fig, "LowerBound"),
		}
	})
}

// BenchmarkFig6GTSTitan regenerates Figure 6(b).
func BenchmarkFig6GTSTitan(b *testing.B) {
	figureBench(b, "fig6b", func(fig *experiment.Figure) map[string]float64 {
		return map[string]float64{
			"inline_s": lastY(fig, "Inline"),
			"topo_s":   lastY(fig, "HelperCore(TopoAware)"),
			"bound_s":  lastY(fig, "LowerBound"),
		}
	})
}

// BenchmarkFig7GTSCases regenerates Figure 7's per-phase breakdown.
func BenchmarkFig7GTSCases(b *testing.B) {
	figureBench(b, "fig7", func(fig *experiment.Figure) map[string]float64 {
		out := map[string]float64{}
		for i, s := range fig.Series {
			var total float64
			for _, y := range s.Y {
				total += y
			}
			out[fmt.Sprintf("case%d_s", i+1)] = total
		}
		return out
	})
}

// BenchmarkFig8CacheInterference regenerates Figure 8 and reports the
// miss-rate inflation.
func BenchmarkFig8CacheInterference(b *testing.B) {
	figureBench(b, "fig8", func(fig *experiment.Figure) map[string]float64 {
		solo := fig.Series[0].Y[0]
		shared := fig.Series[1].Y[0]
		return map[string]float64{
			"solo_MPKI":   solo,
			"shared_MPKI": shared,
			"inflation_%": (shared/solo - 1) * 100,
		}
	})
}

// BenchmarkFig9S3DSmoky regenerates Figure 9(a).
func BenchmarkFig9S3DSmoky(b *testing.B) {
	figureBench(b, "fig9a", func(fig *experiment.Figure) map[string]float64 {
		return map[string]float64{
			"inline_s":  lastY(fig, "Inline"),
			"staging_s": lastY(fig, "Staging(TopoAware)"),
			"bound_s":   lastY(fig, "LowerBound"),
		}
	})
}

// BenchmarkFig9S3DTitan regenerates Figure 9(b).
func BenchmarkFig9S3DTitan(b *testing.B) {
	figureBench(b, "fig9b", func(fig *experiment.Figure) map[string]float64 {
		return map[string]float64{
			"inline_s":  lastY(fig, "Inline"),
			"staging_s": lastY(fig, "Staging(TopoAware)"),
			"bound_s":   lastY(fig, "LowerBound"),
		}
	})
}

// BenchmarkS3DTuning regenerates the Section IV.B.1 movement-tuning table.
func BenchmarkS3DTuning(b *testing.B) {
	figureBench(b, "s3dtune", func(fig *experiment.Figure) map[string]float64 {
		out := map[string]float64{}
		for _, s := range fig.Series {
			prefix := "titan"
			if len(s.Label) >= 5 && s.Label[:5] == "Smoky" {
				prefix = "smoky"
			}
			out[prefix+"_untuned_s"] = s.Y[0]
			out[prefix+"_tuned_s"] = s.Y[1]
		}
		return out
	})
}

// BenchmarkClaims re-derives all headline claims.
func BenchmarkClaims(b *testing.B) {
	figureBench(b, "claims", func(fig *experiment.Figure) map[string]float64 {
		return map[string]float64{"claims": float64(len(fig.Notes) - 1)}
	})
}

// --- Supporting micro-benchmarks (real wall-clock measurements) ---

// mappingSink keeps the mapping benchmarks' results observable so the
// loop bodies cannot be dead-code-eliminated.
var mappingSink int

// mappingDecomps builds the Figure 3-style writer/reader decompositions
// of a 4096² global for an m-writer, n-reader exchange.
func mappingDecomps(b *testing.B, m, n int) (writers, readers *ndarray.Decomposition) {
	b.Helper()
	shape := []int64{4096, 4096}
	writers, err := ndarray.BlockDecompose(shape, ndarray.FactorGrid(m, 2))
	if err != nil {
		b.Fatal(err)
	}
	readers, err = ndarray.BlockDecompose(shape, ndarray.FactorGrid(n, 2))
	if err != nil {
		b.Fatal(err)
	}
	return writers, readers
}

// sweepMappingOp is one iteration of the headline mapping benchmark: it
// invalidates and rebuilds the reader decomposition's interval index
// (charging the one-time build cost to every iteration) and then maps
// every writer box through an arena-reused query — the runtime's actual
// O(actual overlaps) path.
func sweepMappingOp(b *testing.B, m, n int) func() {
	writers, readers := mappingDecomps(b, m, n)
	var arena []ndarray.OverlapTarget
	return func() {
		readers.InvalidateIndex()
		idx := readers.Index()
		total := 0
		for w := range writers.Boxes {
			arena = idx.AppendOverlaps(arena, writers.Boxes[w])
			total += len(arena)
		}
		mappingSink += total
	}
}

// benchSweepMapping is the headline mapping benchmark body.
func benchSweepMapping(m, n int) func(*testing.B) {
	return func(b *testing.B) {
		op := sweepMappingOp(b, m, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
	}
}

// benchAllPairsMapping is the seed's all-pairs Intersect walk, kept as
// the side-by-side baseline the sweep's speedup is measured against.
func benchAllPairsMapping(m, n int) func(*testing.B) {
	return func(b *testing.B) {
		writers, readers := mappingDecomps(b, m, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			total := 0
			for w := range writers.Boxes {
				total += len(ndarray.Overlaps(writers.Boxes[w], readers))
			}
			mappingSink += total
		}
	}
}

// BenchmarkRedistributionMapping measures the MxN overlap computation for
// a Figure 3-style exchange at production-like scales: the headline
// sub-benchmarks run the interval-index sweep, each with an /allpairs
// sibling running the seed's all-pairs walk over the same decompositions.
func BenchmarkRedistributionMapping(b *testing.B) {
	for _, scale := range []struct{ m, n int }{{64, 4}, {512, 16}, {2048, 64}} {
		name := fmt.Sprintf("%dx%d", scale.m, scale.n)
		b.Run(name, benchSweepMapping(scale.m, scale.n))
		b.Run(name+"/allpairs", benchAllPairsMapping(scale.m, scale.n))
	}
}

// BenchmarkPackUnpack measures the strided pack/unpack path that every
// global-array byte crosses, over the dimensionalities the paper's
// workloads use (2-D GTS planes, 3-D S3D species arrays) plus a 4-D
// stress shape with short innermost rows.
func BenchmarkPackUnpack(b *testing.B) {
	cases := []struct {
		name   string
		src    ndarray.Box
		region ndarray.Box
	}{
		{"2D", ndarray.BoxFromShape([]int64{512, 512}),
			ndarray.NewBox([]int64{128, 128}, []int64{384, 384})},
		{"3D", ndarray.BoxFromShape([]int64{64, 128, 128}),
			ndarray.NewBox([]int64{16, 32, 32}, []int64{48, 96, 96})},
		{"3D/full-rows", ndarray.BoxFromShape([]int64{64, 128, 128}),
			ndarray.NewBox([]int64{16, 0, 0}, []int64{48, 128, 128})},
		{"4D", ndarray.BoxFromShape([]int64{16, 16, 64, 24}),
			ndarray.NewBox([]int64{4, 4, 8, 4}, []int64{12, 12, 56, 20})},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			buf := make([]byte, tc.src.NumElements()*8)
			dst := make([]byte, tc.region.NumElements()*8)
			var packed []byte
			b.SetBytes(tc.region.NumElements() * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				packed, err = ndarray.Pack(packed, buf, tc.src, tc.region, 8)
				if err != nil {
					b.Fatal(err)
				}
				if err := ndarray.Unpack(dst, packed, tc.region, tc.region, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRedistPlanSteadyState models the steady state of the M×N data
// path after the first step: redistribution plans are cached (built once,
// outside the timed loop) and payload/assembly buffers cycle through a
// pool, so a whole step of pack + unpack should run without allocating.
func BenchmarkRedistPlanSteadyState(b *testing.B) {
	const elemSize = 8
	shape := []int64{1024, 1024}
	writers, err := ndarray.BlockDecompose(shape, ndarray.FactorGrid(4, 2))
	if err != nil {
		b.Fatal(err)
	}
	readers, err := ndarray.BlockDecompose(shape, ndarray.FactorGrid(2, 2))
	if err != nil {
		b.Fatal(err)
	}

	// Build the cached plans once, exactly as the writer/reader groups do
	// on the first step of a run with stable decompositions.
	type piece struct {
		pack   *ndarray.Plan // writer box -> packed payload
		unpack *ndarray.Plan // packed payload -> reader assembly
		writer int
		reader int
	}
	var pieces []piece
	var stepBytes int64
	for w := range writers.Boxes {
		for r := range readers.Boxes {
			ov, ok := writers.Boxes[w].Intersect(readers.Boxes[r])
			if !ok {
				continue
			}
			pp, err := ndarray.NewPackPlan(writers.Boxes[w], ov, elemSize)
			if err != nil {
				b.Fatal(err)
			}
			up, err := ndarray.NewPlan(readers.Boxes[r], ov, ov, elemSize)
			if err != nil {
				b.Fatal(err)
			}
			pieces = append(pieces, piece{pack: pp, unpack: up, writer: w, reader: r})
			stepBytes += pp.Bytes()
		}
	}

	src := make([][]byte, len(writers.Boxes))
	for w, box := range writers.Boxes {
		src[w] = make([]byte, box.NumElements()*elemSize)
	}
	asm := make([][]byte, len(readers.Boxes))
	for r, box := range readers.Boxes {
		asm[r] = make([]byte, box.NumElements()*elemSize)
	}

	pool := shm.NewBufferPool(0)
	// Warm the pool so the timed loop only ever hits the free lists.
	warm := make([][]byte, len(pieces))
	for i, p := range pieces {
		buf, err := pool.Get(int(p.pack.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		warm[i] = buf
	}
	for _, buf := range warm {
		pool.Put(buf)
	}

	b.SetBytes(stepBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pieces {
			payload, err := pool.Get(int(p.pack.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if err := p.pack.Execute(payload, src[p.writer]); err != nil {
				b.Fatal(err)
			}
			if err := p.unpack.Execute(asm[p.reader], payload); err != nil {
				b.Fatal(err)
			}
			pool.Put(payload)
		}
	}
}

// BenchmarkRegistrationCacheHit measures the registration cache's
// fast path (the hit that Figure 4's curves amortize to zero).
func BenchmarkRegistrationCacheHit(b *testing.B) {
	fab := rdma.NewFabric(machine.Titan(2).Net)
	ep, err := fab.Attach("bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	cache := rdma.NewRegCache(ep, 0)
	r, _, err := cache.Acquire(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	cache.Release(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _, err := cache.Acquire(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		cache.Release(r)
	}
}

// BenchmarkDCPluginPipeline measures a full conditioning chain (select +
// bounding box) over a 1 MB particle payload.
func BenchmarkDCPluginPipeline(b *testing.B) {
	sel, err := dcplugin.SelectRangePlugin(7, 3, 0.2, 0.8).Filter()
	if err != nil {
		b.Fatal(err)
	}
	bbox, err := dcplugin.BoundingBoxPlugin().Filter()
	if err != nil {
		b.Fatal(err)
	}
	data := make([]float64, 7*18000) // ~1 MB
	for i := range data {
		data[i] = float64(i%100) / 100
	}
	payload := dcplugin.FloatsToBytes(data)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e1, err := sel(eventFor(payload))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bbox(e1); err != nil {
			b.Fatal(err)
		}
	}
}
