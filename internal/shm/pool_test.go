package shm

import (
	"testing"
	"testing/quick"
)

func TestSizeClass(t *testing.T) {
	cases := map[int]int{0: 256, 1: 256, 256: 256, 257: 512, 1000: 1024, 4096: 4096}
	for n, want := range cases {
		if got := sizeClass(n); got != want {
			t.Errorf("sizeClass(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPoolReuse(t *testing.T) {
	p := NewBufferPool(0)
	b1, err := p.Get(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) != 1000 || cap(b1) != 1024 {
		t.Fatalf("len/cap = %d/%d", len(b1), cap(b1))
	}
	p.Put(b1)
	b2, _ := p.Get(900) // same class: must reuse
	if &b1[0] != &b2[0] {
		t.Fatal("expected buffer reuse within size class")
	}
	st := p.Stats()
	if st.Allocs != 1 || st.Reuses != 1 || st.Returns != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolDistinctClasses(t *testing.T) {
	p := NewBufferPool(0)
	small, _ := p.Get(100)
	p.Put(small)
	big, _ := p.Get(100000)
	if cap(big) == cap(small) {
		t.Fatal("different classes must not collide")
	}
	if p.Stats().Allocs != 2 {
		t.Fatalf("Allocs = %d, want 2", p.Stats().Allocs)
	}
}

func TestPoolNegativeSize(t *testing.T) {
	p := NewBufferPool(0)
	if _, err := p.Get(-1); err == nil {
		t.Fatal("negative size must error")
	}
}

func TestPoolThresholdReclaims(t *testing.T) {
	p := NewBufferPool(2048) // room for two 1KiB buffers on the free list
	bufs := make([][]byte, 3)
	for i := range bufs {
		bufs[i], _ = p.Get(1024)
	}
	for _, b := range bufs {
		p.Put(b)
	}
	st := p.Stats()
	if st.Reclaims != 1 {
		t.Fatalf("Reclaims = %d, want 1", st.Reclaims)
	}
	if st.BytesFree != 2048 {
		t.Fatalf("BytesFree = %d, want 2048", st.BytesFree)
	}
}

func TestPoolAccountingProperty(t *testing.T) {
	// BytesInUse + BytesFree is consistent under any Get/Put sequence.
	f := func(ops []uint16) bool {
		p := NewBufferPool(0)
		var held [][]byte
		for _, op := range ops {
			if op%2 == 0 || len(held) == 0 {
				b, err := p.Get(int(op%8192) + 1)
				if err != nil {
					return false
				}
				held = append(held, b)
			} else {
				p.Put(held[len(held)-1])
				held = held[:len(held)-1]
			}
		}
		st := p.Stats()
		var inUse int64
		for _, b := range held {
			inUse += int64(cap(b))
		}
		return st.BytesInUse == inUse && st.BytesFree >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
