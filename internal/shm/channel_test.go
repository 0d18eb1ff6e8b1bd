package shm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestChannelInlineRoundTrip(t *testing.T) {
	c, err := NewChannel(8, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte("small message")
	go c.Send(msg)
	got, ok := c.Recv(nil)
	if !ok || !bytes.Equal(got, msg) {
		t.Fatalf("Recv = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.InlineSends != 1 || st.PooledSends != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestChannelPooledRoundTrip(t *testing.T) {
	c, _ := NewChannel(8, 64, 0)
	defer c.Close()
	msg := bytes.Repeat([]byte("x"), 10000)
	go c.Send(msg)
	got, ok := c.Recv(nil)
	if !ok || !bytes.Equal(got, msg) {
		t.Fatalf("pooled Recv failed: ok=%v len=%d", ok, len(got))
	}
	if c.Stats().PooledSends != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
	// The pool buffer must have been returned.
	if ps := c.Pool().Stats(); ps.Returns != 1 {
		t.Fatalf("pool stats = %+v, want 1 return", ps)
	}
}

func TestChannelRecvReusesDst(t *testing.T) {
	c, _ := NewChannel(8, 128, 0)
	defer c.Close()
	go c.Send([]byte("abc"))
	scratch := make([]byte, 0, 64)
	got, ok := c.Recv(scratch)
	if !ok {
		t.Fatal("recv failed")
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("Recv should reuse dst storage when large enough")
	}
}

func TestChannelCloseUnblocksAll(t *testing.T) {
	c, _ := NewChannel(2, 64, 0)
	recvDone := make(chan bool)
	go func() {
		_, ok := c.Recv(nil)
		recvDone <- ok
	}()
	sendDone := make(chan bool)
	// Fill the queue so the next send's control message blocks, then
	// close.
	c.Send([]byte("a"))
	c.Send([]byte("b"))
	go func() { sendDone <- c.Send(make([]byte, 1000)) }()
	c.Close()
	// Receiver may get a pending message or a closed signal; either way
	// it must return.
	<-recvDone
	<-sendDone
}

func TestChannelMixedTrafficOrdered(t *testing.T) {
	c, _ := NewChannel(16, 64, 1<<20)
	defer c.Close()
	const rounds = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			var msg []byte
			if i%3 == 0 {
				msg = bytes.Repeat([]byte{byte(i)}, 2000) // pooled
			} else {
				msg = bytes.Repeat([]byte{byte(i)}, 1+i%60) // inline
			}
			if !c.Send(msg) {
				t.Errorf("send %d failed", i)
				return
			}
		}
	}()
	var buf []byte
	for i := 0; i < rounds; i++ {
		var ok bool
		buf, ok = c.Recv(buf)
		if !ok {
			t.Fatalf("recv %d failed", i)
		}
		wantLen := 1 + i%60
		if i%3 == 0 {
			wantLen = 2000
		}
		if len(buf) != wantLen {
			t.Fatalf("msg %d: len %d, want %d (ordering broken)", i, len(buf), wantLen)
		}
		for _, b := range buf {
			if b != byte(i) {
				t.Fatalf("msg %d corrupted", i)
			}
		}
	}
	wg.Wait()
	ps := c.Pool().Stats()
	if ps.Reuses == 0 {
		t.Error("pool should reuse buffers across pooled sends")
	}
}

func TestChannelHandleRoundTrip(t *testing.T) {
	c, _ := NewChannel(8, 128, 0)
	defer c.Close()
	hdr := []byte("header")
	payload := bytes.Repeat([]byte("p"), 8000)
	released := make(chan struct{})
	go func() {
		if err := c.SendHandle(hdr, payload, func() { close(released) }); err != nil {
			t.Errorf("SendHandle: %v", err)
		}
	}()
	got, ok := c.RecvMsg(nil)
	if !ok || !bytes.Equal(got.Msg, hdr) {
		t.Fatalf("RecvMsg msg = %q, %v", got.Msg, ok)
	}
	if &got.Payload[0] != &payload[0] {
		t.Fatal("handle payload should alias the producer's buffer")
	}
	select {
	case <-released:
		t.Fatal("released before consumer called Release")
	default:
	}
	got.Release()
	<-released
	got.Release() // idempotent
	st := c.Stats()
	if st.HandleSends != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Only the header crossed by copy: once at send, once at receive.
	if want := int64(2 * len(hdr)); st.CopiedBytes != want {
		t.Fatalf("CopiedBytes = %d, want %d (payload must not be copied)", st.CopiedBytes, want)
	}
}

func TestChannelHandleCopyingRecvCompat(t *testing.T) {
	c, _ := NewChannel(8, 128, 0)
	defer c.Close()
	hdr := []byte("meta")
	payload := bytes.Repeat([]byte("q"), 3000)
	released := make(chan struct{})
	go c.SendHandle(hdr, payload, func() { close(released) })
	got, ok := c.Recv(nil)
	if !ok || !bytes.Equal(got, append(append([]byte(nil), hdr...), payload...)) {
		t.Fatalf("copying Recv of handle message = %d bytes, ok=%v", len(got), ok)
	}
	<-released // plain Recv releases immediately after flattening
}

func TestChannelHandleHeaderTooLarge(t *testing.T) {
	c, _ := NewChannel(8, 64, 0)
	defer c.Close()
	err := c.SendHandle(make([]byte, 65), nil, func() { t.Fatal("onRelease must not run on error") })
	if err != ErrHandleTooLarge {
		t.Fatalf("err = %v, want ErrHandleTooLarge", err)
	}
}

func TestChannelCloseReleasesHandles(t *testing.T) {
	c, _ := NewChannel(8, 64, 0)
	released := make(chan struct{})
	if err := c.SendHandle([]byte("h"), make([]byte, 100), func() { close(released) }); err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-released // Close must hand the buffer back to the producer
}

// TestChannelHandleHandoffRace exercises the hand-off/release ordering
// under the race detector: the producer writes each payload before
// SendHandle and reuses it only after onRelease fires; the consumer reads
// the payload and then calls Release. Any missing happens-before edge
// between the producer's write, the consumer's read, and the buffer reuse
// is a data race.
func TestChannelHandleHandoffRace(t *testing.T) {
	c, _ := NewChannel(16, 64, 0)
	defer c.Close()
	const rounds = 500
	buf := make([]byte, 4096) // single buffer, recycled through onRelease
	free := make(chan []byte, 1)
	free <- buf
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			b := <-free
			for j := range b {
				b[j] = byte(i)
			}
			if err := c.SendHandle([]byte{byte(i)}, b, func() { free <- b }); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		got, ok := c.RecvMsg(nil)
		if !ok {
			t.Fatalf("recv %d failed", i)
		}
		if got.Msg[0] != byte(i) {
			t.Fatalf("recv %d: header %d (ordering broken)", i, got.Msg[0])
		}
		for _, v := range got.Payload {
			if v != byte(i) {
				t.Fatalf("recv %d: payload corrupted (read %d)", i, v)
			}
		}
		got.Release()
	}
	wg.Wait()
}

func TestChannelStatsBytes(t *testing.T) {
	c, _ := NewChannel(8, 64, 0)
	defer c.Close()
	go func() {
		c.Send(make([]byte, 10))
		c.Send(make([]byte, 1000))
	}()
	c.Recv(nil)
	c.Recv(nil)
	st := c.Stats()
	if st.MessagesSent != 2 || st.BytesSent != 1010 {
		t.Fatalf("stats = %+v", st)
	}
}

func BenchmarkSPSCQueueInline(b *testing.B) {
	for _, size := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("msg%dB", size), func(b *testing.B) {
			q, _ := NewQueue(1024, 512)
			msg := make([]byte, size)
			buf := make([]byte, 512)
			b.SetBytes(int64(size))
			b.ResetTimer()
			done := make(chan struct{})
			go func() {
				for i := 0; i < b.N; i++ {
					q.Enqueue(msg)
				}
				close(done)
			}()
			for i := 0; i < b.N; i++ {
				q.Dequeue(buf)
			}
			<-done
		})
	}
}

func BenchmarkChannelPooledVsHandle(b *testing.B) {
	const size = 1 << 20
	msg := make([]byte, size)
	b.Run("pooled-2copy", func(b *testing.B) {
		c, _ := NewChannel(64, 256, 64<<20)
		defer c.Close()
		b.SetBytes(size)
		done := make(chan struct{})
		b.ResetTimer()
		go func() {
			for i := 0; i < b.N; i++ {
				c.Send(msg)
			}
			close(done)
		}()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = c.Recv(buf)
		}
		<-done
	})
	b.Run("handle-0copy", func(b *testing.B) {
		c, _ := NewChannel(64, 256, 0)
		defer c.Close()
		b.SetBytes(size)
		done := make(chan struct{})
		b.ResetTimer()
		go func() {
			for i := 0; i < b.N; i++ {
				c.SendHandle([]byte("hdr"), msg, func() {}) //nolint:errcheck
			}
			close(done)
		}()
		var buf []byte
		for i := 0; i < b.N; i++ {
			r, _ := c.RecvMsg(buf)
			buf = r.Msg
			r.Release()
		}
		<-done
	})
}

func BenchmarkBufferPoolGetPut(b *testing.B) {
	p := NewBufferPool(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ := p.Get(110 << 10)
		p.Put(buf)
	}
}
