package rdma

import (
	"bytes"
	"errors"
	"testing"

	"flexio/internal/machine"
)

func testFabric() *Fabric {
	return NewFabric(machine.Titan(2).Net)
}

func TestAttachDetach(t *testing.T) {
	f := testFabric()
	a, err := f.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Attach("a", 0); err == nil {
		t.Fatal("duplicate attach must fail")
	}
	f.Detach(a)
	if _, err := f.Attach("a", 0); err != nil {
		t.Fatalf("name must be reusable after detach: %v", err)
	}
}

func TestRegisterGet(t *testing.T) {
	f := testFabric()
	a, _ := f.Attach("a", 0)
	b, _ := f.Attach("b", 1)

	src := []byte("the quick brown fox")
	sreg, cost, err := a.RegisterMemory(src)
	if err != nil || cost <= 0 {
		t.Fatalf("register: cost=%g err=%v", cost, err)
	}
	dst := make([]byte, len(src))
	dreg, _, err := b.RegisterMemory(dst)
	if err != nil {
		t.Fatal(err)
	}

	xc, err := b.Get(sreg.Handle(), 0, dreg, 0, len(src))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("Get copied %q, want %q", dst, src)
	}
	if want := f.XferCost(len(src)); xc != want {
		t.Fatalf("xfer cost = %g, want %g", xc, want)
	}
}

func TestGetPartialRange(t *testing.T) {
	f := testFabric()
	a, _ := f.Attach("a", 0)
	b, _ := f.Attach("b", 1)
	src := []byte("0123456789")
	sreg, _, _ := a.RegisterMemory(src)
	dst := make([]byte, 4)
	dreg, _, _ := b.RegisterMemory(dst)
	if _, err := b.Get(sreg.Handle(), 3, dreg, 0, 4); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "3456" {
		t.Fatalf("partial get = %q", dst)
	}
}

func TestGetErrors(t *testing.T) {
	f := testFabric()
	a, _ := f.Attach("a", 0)
	b, _ := f.Attach("b", 1)
	src := make([]byte, 8)
	sreg, _, _ := a.RegisterMemory(src)
	dst := make([]byte, 8)
	dreg, _, _ := b.RegisterMemory(dst)

	if _, err := b.Get(sreg.Handle(), 4, dreg, 0, 8); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("remote OOB = %v", err)
	}
	if _, err := b.Get(sreg.Handle(), 0, dreg, 4, 8); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("local OOB = %v", err)
	}
	if _, err := b.Get(Handle(9999), 0, dreg, 0, 4); !errors.Is(err, ErrBadHandle) {
		t.Errorf("bad handle = %v", err)
	}
	a.UnregisterMemory(sreg)
	if _, err := b.Get(sreg.Handle(), 0, dreg, 0, 4); !errors.Is(err, ErrBadHandle) {
		t.Errorf("unregistered handle = %v", err)
	}
	if _, err := b.Get(sreg.Handle(), 0, nil, 0, 4); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("nil local region = %v", err)
	}
	if err := a.UnregisterMemory(sreg); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("double unregister = %v", err)
	}
}

func TestDetachInvalidatesRegions(t *testing.T) {
	f := testFabric()
	a, _ := f.Attach("a", 0)
	b, _ := f.Attach("b", 1)
	sreg, _, _ := a.RegisterMemory(make([]byte, 16))
	dreg, _, _ := b.RegisterMemory(make([]byte, 16))
	f.Detach(a)
	if _, err := b.Get(sreg.Handle(), 0, dreg, 0, 8); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("region must die with endpoint, got %v", err)
	}
}

func TestCostModel(t *testing.T) {
	f := testFabric()
	// Costs grow with size and registration dominates for small dynamic
	// transfers.
	if f.RegCost(4096) >= f.RegCost(1<<20) {
		t.Error("registration cost must grow with pages")
	}
	if f.XferCost(1) >= f.XferCost(1<<20) {
		t.Error("transfer cost must grow with bytes")
	}
	small := f.XferCost(1024)
	if f.RegCost(1024) < small/100 {
		t.Error("registration should be a visible fraction of small-transfer cost")
	}
}

func TestRegCacheHitsAndReclaim(t *testing.T) {
	f := testFabric()
	ep, _ := f.Attach("a", 0)
	c := NewRegCache(ep, 8192)
	r1, cost1, err := c.Acquire(4096)
	if err != nil || cost1 <= 0 {
		t.Fatalf("first acquire: %g, %v", cost1, err)
	}
	c.Release(r1)
	r2, cost2, err := c.Acquire(4000) // same class
	if err != nil || cost2 != 0 {
		t.Fatalf("cache hit must be free, got %g, %v", cost2, err)
	}
	if r2 != r1 {
		t.Fatal("expected region reuse")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Exceed threshold: 8K retained max; park two 8K regions.
	r3, _, _ := c.Acquire(8192)
	r4, _, _ := c.Acquire(8192)
	c.Release(r3)
	c.Release(r4) // 16K > 8K threshold -> reclaim
	if got := c.Stats().Reclaims; got != 1 {
		t.Fatalf("Reclaims = %d, want 1", got)
	}
}

func TestRegCacheDrain(t *testing.T) {
	f := testFabric()
	ep, _ := f.Attach("a", 0)
	peer, _ := f.Attach("b", 1)
	c := NewRegCache(ep, 0)
	r, _, _ := c.Acquire(4096)
	h := r.Handle()
	c.Release(r)
	c.Drain()
	dst, _, _ := peer.RegisterMemory(make([]byte, 16))
	if _, err := peer.Get(h, 0, dst, 0, 8); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("drained region must be unregistered, got %v", err)
	}
	if c.Stats().BytesRetained != 0 {
		t.Fatal("retained bytes must be zero after drain")
	}
}

func TestMeasureGetBandwidthShapes(t *testing.T) {
	f := testFabric()
	sizes := []int{1 << 10, 64 << 10, 1 << 20, 16 << 20}
	var prevDyn, prevStat float64
	for _, sz := range sizes {
		dyn, err := MeasureGetBandwidth(f, sz, 4, DynamicRegistration)
		if err != nil {
			t.Fatal(err)
		}
		stat, err := MeasureGetBandwidth(f, sz, 4, StaticRegistration)
		if err != nil {
			t.Fatal(err)
		}
		if stat.BandwidthBs <= dyn.BandwidthBs {
			t.Errorf("size %d: static (%.0f) must beat dynamic (%.0f)", sz, stat.BandwidthBs, dyn.BandwidthBs)
		}
		if dyn.BandwidthBs < prevDyn || stat.BandwidthBs < prevStat {
			t.Errorf("size %d: bandwidth should be non-decreasing with size", sz)
		}
		prevDyn, prevStat = dyn.BandwidthBs, stat.BandwidthBs
	}
	// At large sizes the curves converge (Figure 4's shape): the gap at
	// 16 MiB is proportionally far smaller than at 1 KiB.
	dynS, _ := MeasureGetBandwidth(f, 1<<10, 4, DynamicRegistration)
	statS, _ := MeasureGetBandwidth(f, 1<<10, 4, StaticRegistration)
	dynL, _ := MeasureGetBandwidth(f, 16<<20, 4, DynamicRegistration)
	statL, _ := MeasureGetBandwidth(f, 16<<20, 4, StaticRegistration)
	gapSmall := statS.BandwidthBs / dynS.BandwidthBs
	gapLarge := statL.BandwidthBs / dynL.BandwidthBs
	if gapSmall < 2*gapLarge {
		t.Errorf("registration penalty should fade with size: small gap %.2fx, large gap %.2fx", gapSmall, gapLarge)
	}
}

func TestMeasureGetBandwidthCachedMatchesStatic(t *testing.T) {
	f := testFabric()
	cached, err := MeasureGetBandwidth(f, 1<<20, 16, CachedRegistration)
	if err != nil {
		t.Fatal(err)
	}
	static, err := MeasureGetBandwidth(f, 1<<20, 16, StaticRegistration)
	if err != nil {
		t.Fatal(err)
	}
	ratio := cached.BandwidthBs / static.BandwidthBs
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("cached (%.0f) should approximate static (%.0f) after warmup", cached.BandwidthBs, static.BandwidthBs)
	}
}

func TestMeasureGetBandwidthErrors(t *testing.T) {
	f := testFabric()
	if _, err := MeasureGetBandwidth(f, 0, 4, StaticRegistration); err == nil {
		t.Error("zero size must error")
	}
	if _, err := MeasureGetBandwidth(f, 1024, 4, RegistrationMode(42)); err == nil {
		t.Error("unknown mode must error")
	}
}
