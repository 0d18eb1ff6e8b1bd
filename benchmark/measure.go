package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"flexio/internal/flight"
	"flexio/internal/monitor"
)

const (
	// bringUps is how many cold set-ups setup_s is the median of.
	bringUps = 15
	// Under -trace 1 the run's seconds are split: this share for each of
	// the untraced, traced and instrumented runs, the rest for the probes.
	subRunShare = 0.2
	probeShare  = 1 - 3*subRunShare
)

// measurement is what one invocation on one workload produced.
type measurement struct {
	metrics   values
	samples   map[string]int
	attempted int64
	failed    int64
	failure   error // the first failed operation, if any
}

func (m *measurement) count(res *runResult) {
	m.attempted += res.attempted
	m.failed += res.failed
	if m.failure == nil {
		m.failure = res.firstFailure
	}
}

// timedRun is one cold bring-up followed by a timed window. The stream
// comes back closed; its pool and wire counters stay readable.
func timedRun(in *inputs, at attached, window time.Duration) (*stream, *runResult, error) {
	s, err := open(in, at)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.run(in.spec.warmup, window, at.tr)
	s.close()
	return s, res, err
}

// measureEndToEnd is the -trace 0 run: set-up time, then the untraced
// window every end-to-end metric comes from.
func measureEndToEnd(in *inputs, window time.Duration) (*measurement, error) {
	m := &measurement{}
	var setups []float64
	for i := 0; i < bringUps; i++ {
		runtime.GC() // every bring-up starts from the same heap: the inputs
		d, err := bringUp(in)
		if err != nil {
			return nil, fmt.Errorf("bring-up %d: %w", i, err)
		}
		setups = append(setups, d.Seconds())
	}
	runtime.GC()
	_, res, err := timedRun(in, attached{}, window)
	if err != nil {
		return nil, err
	}
	m.count(res)
	m.metrics, m.samples = res.endToEnd(in)
	m.metrics["setup_s"] = median(setups)
	m.samples["samples.setup"] = bringUps
	return m, nil
}

// layerOptions selects which parts of the -trace 1 run happen.
type layerOptions struct {
	traced   bool   // the traced and the instrumented run
	probes   bool   // the layer probes
	traceOut string // where the traced run's spans go; "" for nowhere
}

// measureLayers is the -trace 1 run: a short untraced run as the base,
// the traced run (the benchmark's own wrappers on), the instrumented run
// (the system's monitor and journal attached), then the layer probes.
func measureLayers(in *inputs, total time.Duration, opt layerOptions) (*measurement, error) {
	m := &measurement{metrics: values{}, samples: map[string]int{}}
	window := time.Duration(float64(total) * subRunShare)

	_, base, err := timedRun(in, attached{}, window)
	if err != nil {
		return nil, err
	}
	m.count(base)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	m.metrics["step_latency_p95_ms"] = percentile(base.latencies(), 0.95)
	m.metrics["proc.cpu_util"] = (base.end.cpu - base.start.cpu).Seconds() / base.window().Seconds()
	m.metrics["proc.peak_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	m.metrics["proc.gc_per_kstep"] = float64(base.end.gcs-base.start.gcs) / base.steps() * 1e3

	if opt.traced {
		tr := newTracer()
		_, res, err := timedRun(in, attached{tr: tr}, window)
		if err != nil {
			return nil, err
		}
		m.count(res)
		for k, v := range res.traced(tr) {
			m.metrics[k] = v
		}
		m.metrics["bench.trace_overhead_pct"] = (1 - res.stepsPerSec()/base.stepsPerSec()) * 100
		m.samples["samples.traced_steps"] = int(res.steps())
		if opt.traceOut != "" {
			if err := tr.dump(opt.traceOut, in.spec.name); err != nil {
				return nil, err
			}
		}

		mon := monitor.New("bench")
		s, res, err := timedRun(in, attached{mon: mon, journal: flight.NewJournal(0)}, window)
		if err != nil {
			return nil, err
		}
		m.count(res)
		for k, v := range instrumented(s, res, mon) {
			m.metrics[k] = v
		}
		m.metrics["monitor.attached_overhead_pct"] = (1 - res.stepsPerSec()/base.stepsPerSec()) * 100
		m.samples["samples.instrumented_steps"] = int(res.steps())
	}

	if opt.probes {
		p, err := probe(in, time.Duration(float64(total)*probeShare))
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		for k, v := range p {
			m.metrics[k] = v
		}
	}
	return m, nil
}

// instrumented reads the I rows off the system's own public counters
// after the instrumented run.
func instrumented(s *stream, res *runResult, mon *monitor.Monitor) values {
	rep := mon.Snapshot()
	written := float64(res.last + 1) // counters also cover the warm-up
	pool := s.wg.PayloadPoolStats()
	tcp := s.wnet.TCPStatsSnapshot()
	return values{
		"core.handshakes_per_step":       float64(rep.Counts["handshake.writer-dist.sent"]) / written,
		"core.plan_cache_hit_share":      share(rep.Counts["plan.cache.hit"], rep.Counts["plan.cache.build"]),
		"core.send_retries":              float64(rep.Counts["send.retries"]),
		"core.payload_pool_reuse_share":  share(pool.Reuses, pool.Allocs),
		"core.payload_pool_high_mb":      float64(pool.HighWater) / 1e6,
		"core.asm_pool_high_mb":          float64(s.rg.AsmPoolStats().HighWater) / 1e6,
		"evpath.tcp.wire_bytes_per_step": float64(tcp.BytesTX) / written,
		"evpath.tcp.redials":             float64(tcp.Redials),
		"evpath.tcp.proto_errs":          float64(tcp.ProtoErrs),
		"shm.zerocopy_hit_share":         share(rep.Counts["shm.zerocopy_hits"], rep.Counts["shm.zerocopy_fallbacks"]),
		"monitor.attached_steps_per_s":   res.stepsPerSec(),
	}
}
