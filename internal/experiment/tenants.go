package experiment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"flexio/internal/core"
	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/fabric"
	"flexio/internal/flight"
	"flexio/internal/machine"
	"flexio/internal/monitor"
	"flexio/internal/ndarray"
)

// The tenants soak: nTenants coupled streams share one staging pool, one
// transport fabric and one sharded directory. Every tenant writes the
// same stream name ("gts") — isolation comes entirely from the tenant
// namespace. Two designated tenants are elastic (resized mid-run from
// observed phase-A latency), one is a hot async blaster throttled by its
// own credit window, and the rest are steady background load used to
// measure cross-tenant latency isolation.
const (
	tenantsN      = 32
	tenantsSteps  = 16 // two phases of 8 I/O epochs each
	tenantsPhaseA = 8
	idxElasticA   = 0
	idxElasticB   = 1
	idxHot        = 2
)

// tenantWord is the deterministic 8-byte payload word every element of
// tenant t's array carries at step s; readers verify every word, so a
// cross-tenant or cross-step delivery is caught immediately.
func tenantWord(tenant, step int) uint64 {
	return 0x9E3779B97F4A7C15 * uint64(tenant*1000003+step+1)
}

func fillTenantPayload(buf []byte, tenant, step int) {
	w := tenantWord(tenant, step)
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], w)
	}
}

func checkTenantPayload(buf []byte, tenant, step int) error {
	w := tenantWord(tenant, step)
	for i := 0; i+8 <= len(buf); i += 8 {
		if got := binary.LittleEndian.Uint64(buf[i:]); got != w {
			return fmt.Errorf("tenant %d step %d: word %d = %#x, want %#x",
				tenant, step, i/8, got, w)
		}
	}
	return nil
}

// tenantRun is the per-tenant state the soak driver tracks.
type tenantRun struct {
	id    string
	idx   int
	grant *fabric.Grant
	mon   *monitor.Monitor
	jrn   *flight.Journal
	wg    *core.WriterGroup
	rg    *core.ReaderGroup
	shape []int64

	mu       sync.Mutex
	phaseALt []time.Duration // per-step writer latency, steps 0..phaseA-1
	phaseBLt []time.Duration // per-step writer latency, steps phaseA..
}

func (t *tenantRun) record(step int, d time.Duration) {
	t.mu.Lock()
	if step < tenantsPhaseA {
		t.phaseALt = append(t.phaseALt, d)
	} else {
		t.phaseBLt = append(t.phaseBLt, d)
	}
	t.mu.Unlock()
}

func durP99(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)*99)/100]
}

func durMean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// tenantConsume reads and verifies steps [from, to) on one reader rank.
// slack > 0 simulates a slow analysis kernel (the hot tenant's reader).
func tenantConsume(rd *core.Reader, tenant, from, to int, slack time.Duration) error {
	for s := from; s < to; s++ {
		step, ok := rd.BeginStep()
		if !ok || step != int64(s) {
			return fmt.Errorf("tenant %d reader %d: step %d ok=%v want %d",
				tenant, rd.Rank, step, ok, s)
		}
		buf, _, err := rd.ReadArray("field")
		if err != nil {
			return err
		}
		err = checkTenantPayload(buf, tenant, s)
		rd.ReleaseArray(buf)
		if err != nil {
			return err
		}
		if err := rd.EndStep(); err != nil {
			return err
		}
		if slack > 0 {
			time.Sleep(slack)
		}
	}
	return nil
}

// verifyTenantJournal asserts the per-tenant flight journal shows exactly
// one writer.flush per step — no step lost, none flushed twice.
func verifyTenantJournal(t *tenantRun) error {
	flushes := map[int64]int{}
	for _, ev := range t.jrn.Snapshot() {
		if ev.Point == "writer.flush" {
			flushes[ev.Step]++
		}
	}
	for s := int64(0); s < tenantsSteps; s++ {
		if n := flushes[s]; n != 1 {
			return fmt.Errorf("tenant %s: step %d flushed %d times, want 1", t.id, s, n)
		}
	}
	if len(flushes) != tenantsSteps {
		return fmt.Errorf("tenant %s: %d distinct flushed steps, want %d",
			t.id, len(flushes), tenantsSteps)
	}
	return nil
}

// Tenants runs the multi-tenant shared-fabric soak and reports per-phase
// P99 writer step latency for every steady tenant, plus the elasticity
// and quota events as notes.
func Tenants() (*Figure, error) {
	pool := machine.Titan(16) // 256 shared cores
	fab := fabric.New(pool)
	defer fab.Close()
	// Tenants grown onto other nodes cross a loopback socket of the one
	// process's Net.
	net := evpath.NewNet(nil)
	if err := net.ServeLoopback(); err != nil {
		return nil, err
	}
	defer net.CloseTCP()
	dir := directory.NewMem()
	defer dir.Close()

	fig := &Figure{
		ID:     "TENANTS",
		Title:  fmt.Sprintf("Multi-tenant soak: %d tenants x %d epochs on one staging pool", tenantsN, tenantsSteps),
		XLabel: "tenant index",
		YLabel: "writer step P99 (microseconds)",
	}

	// A tenant whose policy quota cannot fit its request is rejected at
	// admission — a policy error, never queued.
	fab.SetQuota("reject-me", fabric.Quota{MaxCores: 1})
	if _, err := fab.Admit(fabric.Request{Tenant: "reject-me", NSim: 1, NAna: 1}); !errors.Is(err, fabric.ErrOverQuota) {
		return nil, fmt.Errorf("over-quota admission returned %v, want ErrOverQuota", err)
	}
	fig.Notes = append(fig.Notes, "over-quota admission rejected at the fabric (ErrOverQuota, not queued)")

	tenants := make([]*tenantRun, tenantsN)
	errCh := make(chan error, tenantsN*8)
	for i := 0; i < tenantsN; i++ {
		t := &tenantRun{id: fmt.Sprintf("t%02d", i), idx: i}
		t.mon = monitor.New("tenant-" + t.id)
		t.jrn = flight.NewJournal(4096)
		t.shape = []int64{32, 32}
		nAna := 1
		opts := core.Options{
			Tenant: t.id,
			Transport: func(w, r int) (evpath.TransportKind, int, int) {
				return evpath.ShmTransport, 0, 0
			},
			WriterNode: func(w int) int { return 0 },
		}
		ropts := core.ReaderOptions{Tenant: t.id}
		switch i {
		case idxElasticA, idxElasticB:
			nAna = 2
			ropts.Quota = core.TenantQuota{MaxRanks: 4}
		case idxHot:
			// Async blaster with a tight credit window: ~1.3 steps of
			// staged bytes, so the second queued step backpressures the
			// hot writer against its own budget, not the shared pool.
			t.shape = []int64{64, 64}
			opts.Async = true
			opts.AsyncQueueDepth = 4
			opts.Quota = core.TenantQuota{
				MaxStagedBytes:   int64(t.shape[0]*t.shape[1]*8) * 4 / 3,
				MaxInflightSteps: 2,
			}
		}

		grant, err := fab.Admit(fabric.Request{
			Tenant: t.id, NSim: 1, NAna: nAna, SimThreads: 1, Block: true,
		})
		if err != nil {
			return nil, fmt.Errorf("admit %s: %w", t.id, err)
		}
		t.grant = grant

		t.wg, err = core.NewWriterGroup(net, dir, "gts", 1, opts, t.mon)
		if err != nil {
			return nil, fmt.Errorf("writer group %s: %w", t.id, err)
		}
		t.wg.SetJournal(t.jrn)
		t.rg, err = core.NewReaderGroupOpts(net, dir, "gts", nAna, ropts, nil)
		if err != nil {
			return nil, fmt.Errorf("reader group %s: %w", t.id, err)
		}
		tenants[i] = t
	}

	var phaseAWriters, phaseAReaders, all sync.WaitGroup
	phaseBGo := make(chan struct{})

	// Writers: every tenant runs one writer rank over the whole array.
	for _, t := range tenants {
		t := t
		all.Add(1)
		phaseAWriters.Add(1)
		go func() {
			defer all.Done()
			wr := t.wg.Writer(0)
			payload := make([]byte, t.shape[0]*t.shape[1]*8)
			write := func(s int) error {
				fillTenantPayload(payload, t.idx, s)
				start := time.Now()
				if err := wr.BeginStep(int64(s)); err != nil {
					return err
				}
				if err := wr.Write(core.VarMeta{Name: "field", Kind: core.GlobalArrayVar,
					ElemSize: 8, GlobalShape: t.shape,
					Box: ndarray.NewBox([]int64{0, 0}, t.shape)}, payload); err != nil {
					return err
				}
				if err := wr.EndStep(); err != nil {
					return err
				}
				t.record(s, time.Since(start))
				return nil
			}
			for s := 0; s < tenantsPhaseA; s++ {
				if err := write(s); err != nil {
					errCh <- fmt.Errorf("tenant %s writer: %w", t.id, err)
					phaseAWriters.Done()
					return
				}
				time.Sleep(200 * time.Microsecond) // steady pacing
			}
			phaseAWriters.Done()
			switch t.idx {
			case idxElasticA, idxElasticB:
				// Hold the step boundary until the driver's Reconfigure
				// request is parked, then stream on (the writes drive the
				// drain/ack handshake).
				for t.wg.SessionState() != core.StateReconfiguring {
					time.Sleep(100 * time.Microsecond)
				}
			default:
				<-phaseBGo
			}
			for s := tenantsPhaseA; s < tenantsSteps; s++ {
				if err := write(s); err != nil {
					errCh <- fmt.Errorf("tenant %s writer: %w", t.id, err)
					return
				}
				if t.idx != idxHot {
					time.Sleep(200 * time.Microsecond)
				}
				// The hot tenant blasts phase B unpaced: its credit
				// window, not the shared fabric, absorbs the burst.
			}
		}()
	}

	// Readers. Steady and hot tenants consume all steps on their initial
	// ranks; elastic tenants consume phase A, pause for the resize, and
	// the post-resize ranks are started after Reconfigure below.
	for _, t := range tenants {
		t := t
		slack := time.Duration(0)
		if t.idx == idxHot {
			slack = 500 * time.Microsecond // slow kernel: forces staging buildup
		}
		to := tenantsSteps
		if t.idx == idxElasticA || t.idx == idxElasticB {
			to = tenantsPhaseA
		}
		for r := 0; r < t.rg.NReaders; r++ {
			r := r
			all.Add(1)
			if to == tenantsPhaseA {
				phaseAReaders.Add(1)
			}
			go func() {
				defer all.Done()
				if to == tenantsPhaseA {
					defer phaseAReaders.Done()
				}
				rd := t.rg.Reader(r)
				dec, err := ndarray.BlockDecompose(t.shape, ndarray.FactorGrid(t.rg.NReaders, 2))
				if err != nil {
					errCh <- err
					return
				}
				if err := rd.SelectArray("field", dec.Boxes[r]); err != nil {
					errCh <- fmt.Errorf("tenant %s reader %d: %w", t.id, r, err)
					return
				}
				if err := tenantConsume(rd, t.idx, 0, to, slack); err != nil {
					errCh <- err
				}
			}()
		}
	}

	phaseAWriters.Wait()
	phaseAReaders.Wait()

	// Elasticity decision from observed signals: of the two elastic
	// tenants, the one with the higher phase-A mean step latency earns a
	// third analytics rank; the colder one gives one back. The fabric
	// resize computes the placement delta; Reconfigure applies it.
	ea, eb := tenants[idxElasticA], tenants[idxElasticB]
	grow, shrink := ea, eb
	if durMean(eb.phaseALt) > durMean(ea.phaseALt) {
		grow, shrink = eb, ea
	}
	resize := func(t *tenantRun, newN int) error {
		delta, err := fab.Resize(t.grant, newN)
		if err != nil {
			return fmt.Errorf("fabric resize %s -> %d: %w", t.id, newN, err)
		}
		dec, err := ndarray.BlockDecompose(t.shape, ndarray.FactorGrid(newN, 2))
		if err != nil {
			return err
		}
		return t.rg.Reconfigure(core.ReconfigSpec{
			NReaders: newN,
			Arrays:   map[string][]ndarray.Box{"field": dec.Boxes},
			Nodes:    delta.AnaNodes,
		})
	}
	if err := resize(grow, 3); err != nil {
		return nil, err
	}
	if err := resize(shrink, 1); err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("grew %s 2->3 ranks (phase-A mean %v), shrank %s 2->1 (phase-A mean %v)",
			grow.id, durMean(grow.phaseALt).Round(time.Microsecond),
			shrink.id, durMean(shrink.phaseALt).Round(time.Microsecond)))

	// Post-resize readers for the elastic tenants, then release phase B.
	for _, t := range []*tenantRun{grow, shrink} {
		t := t
		for r := 0; r < t.rg.NReaders; r++ {
			r := r
			all.Add(1)
			go func() {
				defer all.Done()
				if err := tenantConsume(t.rg.Reader(r), t.idx, tenantsPhaseA, tenantsSteps, 0); err != nil {
					errCh <- err
				}
			}()
		}
	}
	close(phaseBGo)

	all.Wait()
	for _, t := range tenants {
		if err := t.wg.Close(); err != nil {
			return nil, fmt.Errorf("close writer %s: %w", t.id, err)
		}
		t.rg.Close()
		fab.Release(t.grant)
	}
	close(errCh)
	for err := range errCh {
		if err != nil {
			return nil, err
		}
	}

	// Per-tenant invariants: exactly one flush per step (journal), all
	// staged bytes retired, the hot tenant actually hit its window, and
	// each elastic tenant completed exactly one reconfiguration.
	for _, t := range tenants {
		if err := verifyTenantJournal(t); err != nil {
			return nil, err
		}
		rep := t.mon.Snapshot()
		if g := rep.Gauges["tenant."+t.id+".staged_bytes"]; g != 0 {
			return nil, fmt.Errorf("tenant %s: %d staged bytes leaked", t.id, g)
		}
		switch t.idx {
		case idxHot:
			waits := rep.Counts["tenant."+t.id+".backpressure.waits"]
			if waits == 0 {
				return nil, fmt.Errorf("hot tenant never hit its credit window")
			}
			fig.Notes = append(fig.Notes,
				fmt.Sprintf("hot tenant %s backpressured %d times against its own window", t.id, waits))
		case grow.idx, shrink.idx:
			if c := rep.Counts["reconfig.count"]; c != 1 {
				return nil, fmt.Errorf("tenant %s: reconfig.count = %d, want 1", t.id, c)
			}
		}
	}
	if got := fab.FreeCores(); got != pool.TotalCores() {
		return nil, fmt.Errorf("pool leak: %d cores free after release, want %d", got, pool.TotalCores())
	}

	// Isolation: the hot blast in phase B must not inflate any steady
	// tenant's P99 step latency beyond 2x its own phase-A P99 (with a
	// scheduler-noise floor so sub-millisecond jitter can't fail the run).
	const floor = 5 * time.Millisecond
	pA := Series{Label: "phase A P99 (steady)"}
	pB := Series{Label: "phase B P99 (hot tenant blasting)"}
	for _, t := range tenants {
		if t.idx == idxHot || t.idx == grow.idx || t.idx == shrink.idx {
			continue
		}
		a, b := durP99(t.phaseALt), durP99(t.phaseBLt)
		limit := 2 * a
		if limit < 2*floor {
			limit = 2 * floor
		}
		if b > limit {
			return nil, fmt.Errorf("tenant %s: phase B P99 %v vs phase A %v — hot tenant leaked backpressure",
				t.id, b, a)
		}
		x := float64(t.idx)
		pA.X = append(pA.X, x)
		pA.Y = append(pA.Y, float64(a.Microseconds()))
		pB.X = append(pB.X, x)
		pB.Y = append(pB.Y, float64(b.Microseconds()))
	}
	fig.Series = append(fig.Series, pA, pB)
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"%d tenants x %d epochs, shared pool of %d cores, zero lost/duplicated steps (journal-verified)",
		tenantsN, tenantsSteps, pool.TotalCores()))
	return fig, nil
}
