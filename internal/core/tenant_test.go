package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexio/internal/directory"
	"flexio/internal/monitor"
	"flexio/internal/ndarray"
)

// runTenantStream couples one writer group and one reader group for a
// tenant over a shared harness and moves `steps` steps of a small array,
// verifying payload integrity. Returns the writer monitor snapshot.
func runTenantStream(t *testing.T, h *harness, tenant, stream string, opts Options, steps int) monitor.Report {
	t.Helper()
	shape := []int64{8, 8}
	global := ndarray.BoxFromShape(shape)
	wm := monitor.New("writers-" + tenant)

	opts.Tenant = tenant
	wg, err := NewWriterGroup(h.net, h.dir, stream, 1, opts, wm)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroupOpts(h.net, h.dir, stream, 1, ReaderOptions{Tenant: tenant}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var workers sync.WaitGroup
	workers.Add(1)
	go func() {
		defer workers.Done()
		wr := wg.Writer(0)
		for s := 0; s < steps; s++ {
			if err := wr.BeginStep(int64(s)); err != nil {
				t.Errorf("tenant %s writer: %v", tenant, err)
				return
			}
			meta := VarMeta{Name: "f", Kind: GlobalArrayVar, ElemSize: 8, GlobalShape: shape, Box: global}
			if err := wr.Write(meta, fillArrayBytes(global, global)); err != nil {
				t.Errorf("tenant %s writer: %v", tenant, err)
				return
			}
			if err := wr.EndStep(); err != nil {
				t.Errorf("tenant %s writer: %v", tenant, err)
				return
			}
		}
	}()
	rd := rg.Reader(0)
	if err := rd.SelectArray("f", global); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		step, ok := rd.BeginStep()
		if !ok || step != int64(s) {
			t.Fatalf("tenant %s reader: step %d ok=%v, want %d", tenant, step, ok, s)
		}
		data, box, err := rd.ReadArray("f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, fillArrayBytes(box, global)) {
			t.Fatalf("tenant %s step %d: data mismatch", tenant, s)
		}
		rd.EndStep()
	}
	workers.Wait()
	wg.Close()
	rg.Close()
	return wm.Snapshot()
}

// Two tenants run identically-named streams over one shared directory
// and network without crosstalk.
func TestTenantsSameStreamNameIsolated(t *testing.T) {
	h := newHarness(t)
	defer h.dir.Close()
	var wg sync.WaitGroup
	for _, tenant := range []string{"climate-a", "climate-b", "fusion-c"} {
		tenant := tenant
		wg.Add(1)
		go func() {
			defer wg.Done()
			runTenantStream(t, h, tenant, "gts", Options{}, 3)
		}()
	}
	wg.Wait()
	if n := h.dir.Len(); n != 0 {
		t.Errorf("directory has %d leftover keys after teardown", n)
	}
}

// A writer group over its rank quota is rejected at construction; same
// for readers, and for a Reconfigure growing past MaxRanks.
func TestTenantMaxRanks(t *testing.T) {
	h := newHarness(t)
	defer h.dir.Close()
	_, err := NewWriterGroup(h.net, h.dir, "s", 4, Options{Tenant: "t", Quota: TenantQuota{MaxRanks: 2}}, nil)
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("writer over MaxRanks: %v, want ErrOverQuota", err)
	}
	_, err = NewWriterGroup(h.net, h.dir, "s", 1, Options{Tenant: "bad/tenant"}, nil)
	if err == nil {
		t.Fatal("writer accepted tenant id with '/'")
	}
	if _, err := NewWriterGroup(h.net, h.dir, "s", 2, Options{Tenant: "t"}, nil); err != nil {
		t.Fatal(err)
	}
	_, err = NewReaderGroupOpts(h.net, h.dir, "s", 4, ReaderOptions{Tenant: "t", Quota: TenantQuota{MaxRanks: 2}}, nil)
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("reader over MaxRanks: %v, want ErrOverQuota", err)
	}
}

// A hot async writer with a small staged-bytes budget blocks on its own
// credit window: backpressure waits are recorded, every step still
// arrives intact, and the window drains to zero at the end.
func TestTenantStagedBytesBackpressure(t *testing.T) {
	h := newHarness(t)
	defer h.dir.Close()
	const steps = 12
	shape := []int64{32, 32}
	global := ndarray.BoxFromShape(shape)
	payload := fillArrayBytes(global, global) // 8 KiB per step
	wm := monitor.New("hot")
	opts := Options{
		Tenant: "hot",
		Async:  true, AsyncQueueDepth: 8,
		// Budget below two steps' staging: the writer can stage at most one
		// step ahead of the flusher.
		Quota: TenantQuota{MaxStagedBytes: int64(len(payload)) + 1, MaxInflightSteps: 4},
	}
	wg, err := NewWriterGroup(h.net, h.dir, "soak", 1, opts, wm)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroupOpts(h.net, h.dir, "soak", 1, ReaderOptions{Tenant: "hot"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var workers sync.WaitGroup
	workers.Add(1)
	go func() {
		defer workers.Done()
		wr := wg.Writer(0)
		for s := 0; s < steps; s++ {
			meta := VarMeta{Name: "f", Kind: GlobalArrayVar, ElemSize: 8, GlobalShape: shape, Box: global}
			if err := wr.BeginStep(int64(s)); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			if err := wr.Write(meta, payload); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			if err := wr.EndStep(); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	rd := rg.Reader(0)
	if err := rd.SelectArray("f", global); err != nil {
		t.Fatal(err)
	}
	for got := 0; got < steps; got++ {
		step, ok := rd.BeginStep()
		if !ok || step != int64(got) {
			t.Fatalf("reader: step %d ok=%v, want %d (lost or duplicated)", step, ok, got)
		}
		data, box, err := rd.ReadArray("f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, fillArrayBytes(box, global)) {
			t.Fatalf("step %d: data mismatch under backpressure", step)
		}
		rd.EndStep()
		// Slow consumer: forces the writer into its credit window.
		time.Sleep(time.Millisecond)
	}
	workers.Wait()
	wg.Close()
	if step, ok := rd.BeginStep(); ok {
		t.Fatalf("step %d after the writer closed, want EOS", step)
	}
	rg.Close()
	rep := wm.Snapshot()
	if waits := rep.Counts["tenant.hot.backpressure.waits"]; waits == 0 {
		t.Error("hot writer never waited on its credit window")
	}
	if staged := rep.Gauges["tenant.hot.staged_bytes"]; staged != 0 {
		t.Errorf("staged_bytes gauge = %d after drain, want 0", staged)
	}
	if inflight := rep.Gauges["tenant.hot.inflight_steps"]; inflight != 0 {
		t.Errorf("inflight_steps gauge = %d after drain, want 0", inflight)
	}
}

// A single step larger than the whole staged-bytes budget is admitted via
// the overdraft rule instead of deadlocking.
func TestTenantOversizedStepOverdraft(t *testing.T) {
	h := newHarness(t)
	defer h.dir.Close()
	shape := []int64{16, 16}
	global := ndarray.BoxFromShape(shape)
	opts := Options{Tenant: "tiny", Quota: TenantQuota{MaxStagedBytes: 64}} // 2 KiB step >> 64 B budget
	wg, err := NewWriterGroup(h.net, h.dir, "ov", 1, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroupOpts(h.net, h.dir, "ov", 1, ReaderOptions{Tenant: "tiny"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wr := wg.Writer(0)
		for s := 0; s < 2; s++ {
			meta := VarMeta{Name: "f", Kind: GlobalArrayVar, ElemSize: 8, GlobalShape: shape, Box: global}
			if err := wr.BeginStep(int64(s)); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			if err := wr.Write(meta, fillArrayBytes(global, global)); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			if err := wr.EndStep(); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	rd := rg.Reader(0)
	if err := rd.SelectArray("f", global); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if step, ok := rd.BeginStep(); !ok || step != int64(s) {
			t.Fatalf("reader: step %d ok=%v, want %d", step, ok, s)
		}
		if _, _, err := rd.ReadArray("f"); err != nil {
			t.Fatal(err)
		}
		rd.EndStep()
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("oversized step deadlocked on its own credit window")
	}
	wg.Close()
	rg.Close()
}

// Closing the writer group while a producer is parked on the credit
// window must wake it with ErrSessionClosed, not leave it blocked.
func TestTenantCreditWindowUnblocksOnClose(t *testing.T) {
	cw := newCreditWindow("x", TenantQuota{MaxStagedBytes: 10}, nil)
	if err := cw.acquireBytes(8); err != nil {
		t.Fatal(err)
	}
	var blocked atomic.Bool
	errCh := make(chan error, 1)
	go func() {
		blocked.Store(true)
		errCh <- cw.acquireBytes(8) // over budget: parks
	}()
	for !blocked.Load() {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	cw.close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("parked producer woke with %v, want ErrSessionClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not wake the parked producer")
	}
}

// Scalar sanity under the tenant namespace: rank-0 broadcast still
// reaches readers when the stream is tenant-qualified.
func TestTenantScalarRoundTrip(t *testing.T) {
	h := newHarness(t)
	defer h.dir.Close()
	opts := Options{Tenant: "scalar-t"}
	wg, err := NewWriterGroup(h.net, h.dir, "sc", 1, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroupOpts(h.net, h.dir, "sc", 1, ReaderOptions{Tenant: "scalar-t"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		wr := wg.Writer(0)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], 42)
		if err := wr.BeginStep(0); err != nil {
			t.Errorf("writer: %v", err)
			return
		}
		if err := wr.Write(VarMeta{Name: "dt", Kind: ScalarVar, ElemSize: 8}, buf[:]); err != nil {
			t.Errorf("writer: %v", err)
			return
		}
		if err := wr.EndStep(); err != nil {
			t.Errorf("writer: %v", err)
		}
	}()
	rd := rg.Reader(0)
	if step, ok := rd.BeginStep(); !ok || step != 0 {
		t.Fatalf("reader: step %d ok=%v", step, ok)
	}
	data, err := rd.ReadScalar("dt")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint64(data); v != 42 {
		t.Fatalf("scalar = %d, want 42", v)
	}
	rd.EndStep()
	wg.Close()
	rg.Close()

	// The tenant-qualified key must be gone after teardown; a bare-name
	// lookup must never have existed.
	if _, err := h.dir.Lookup(directory.Qualify("scalar-t", "sc")); !errors.Is(err, directory.ErrNotFound) {
		t.Errorf("qualified key survives close: %v", err)
	}
	if _, err := h.dir.Lookup("sc"); !errors.Is(err, directory.ErrNotFound) {
		t.Errorf("bare key leaked into the legacy namespace: %v", err)
	}
}
