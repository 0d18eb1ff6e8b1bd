package shm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestQueueBasics(t *testing.T) {
	q, err := NewQueue(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if q.Capacity() != 4 || q.PayloadSize() != 32 {
		t.Fatalf("capacity/payload = %d/%d", q.Capacity(), q.PayloadSize())
	}
	if !q.TryEnqueue([]byte("hello")) {
		t.Fatal("enqueue into empty queue failed")
	}
	buf := make([]byte, 32)
	n, ok := q.TryDequeue(buf)
	if !ok || string(buf[:n]) != "hello" {
		t.Fatalf("dequeue = %q, %v", buf[:n], ok)
	}
	if _, ok := q.TryDequeue(buf); ok {
		t.Fatal("dequeue from empty queue should fail")
	}
}

func TestQueueRoundsUpCapacity(t *testing.T) {
	q, _ := NewQueue(5, 8)
	if q.Capacity() != 8 {
		t.Fatalf("capacity = %d, want 8 (next pow2)", q.Capacity())
	}
	q, _ = NewQueue(0, 8)
	if q.Capacity() != 2 {
		t.Fatalf("capacity = %d, want 2 (minimum)", q.Capacity())
	}
}

func TestQueueInvalidPayload(t *testing.T) {
	if _, err := NewQueue(4, 0); err == nil {
		t.Fatal("zero payload size must error")
	}
}

func TestQueueFull(t *testing.T) {
	q, _ := NewQueue(4, 8)
	for i := 0; i < 4; i++ {
		if !q.TryEnqueue([]byte{byte(i)}) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if q.TryEnqueue([]byte{9}) {
		t.Fatal("enqueue into full queue must fail")
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}
	buf := make([]byte, 8)
	n, ok := q.TryDequeue(buf)
	if !ok || n != 1 || buf[0] != 0 {
		t.Fatal("FIFO violated")
	}
	if !q.TryEnqueue([]byte{9}) {
		t.Fatal("enqueue after drain must succeed (circularity)")
	}
}

func TestQueueOversizedMessageRejected(t *testing.T) {
	q, _ := NewQueue(4, 8)
	if q.TryEnqueue(make([]byte, 9)) {
		t.Fatal("oversized message must be rejected")
	}
}

func TestQueueWraparound(t *testing.T) {
	q, _ := NewQueue(4, 16)
	buf := make([]byte, 16)
	for i := 0; i < 100; i++ {
		msg := []byte(fmt.Sprintf("m%02d", i))
		if !q.TryEnqueue(msg) {
			t.Fatalf("enqueue %d failed", i)
		}
		n, ok := q.TryDequeue(buf)
		if !ok || !bytes.Equal(buf[:n], msg) {
			t.Fatalf("iter %d: got %q want %q", i, buf[:n], msg)
		}
	}
}

func TestQueueCloseUnblocksConsumer(t *testing.T) {
	q, _ := NewQueue(4, 8)
	done := make(chan bool)
	go func() {
		buf := make([]byte, 8)
		_, ok := q.Dequeue(buf)
		done <- ok
	}()
	q.Close()
	if ok := <-done; ok {
		t.Fatal("Dequeue on closed empty queue should report !ok")
	}
}

func TestQueueCloseDrainsPending(t *testing.T) {
	q, _ := NewQueue(4, 8)
	q.TryEnqueue([]byte("x"))
	q.Close()
	buf := make([]byte, 8)
	if n, ok := q.Dequeue(buf); !ok || n != 1 {
		t.Fatal("pending entry must remain dequeueable after Close")
	}
	if _, ok := q.Dequeue(buf); ok {
		t.Fatal("drained closed queue must report !ok")
	}
}

func TestQueueCloseUnblocksProducer(t *testing.T) {
	q, _ := NewQueue(2, 8)
	q.TryEnqueue([]byte("a"))
	q.TryEnqueue([]byte("b"))
	done := make(chan bool)
	go func() { done <- q.Enqueue([]byte("c")) }()
	q.Close()
	if ok := <-done; ok {
		t.Fatal("Enqueue on closed full queue should report false")
	}
}

// TestQueueSPSCStress moves a long sequence across goroutines and checks
// ordering and integrity — the core lock-free correctness test.
func TestQueueSPSCStress(t *testing.T) {
	const total = 200000
	q, _ := NewQueue(64, 16)
	var wg sync.WaitGroup
	wg.Add(2)
	errCh := make(chan error, 1)
	go func() { // producer
		defer wg.Done()
		msg := make([]byte, 8)
		for i := 0; i < total; i++ {
			binary.LittleEndian.PutUint64(msg, uint64(i))
			if !q.Enqueue(msg) {
				select {
				case errCh <- fmt.Errorf("enqueue %d failed", i):
				default:
				}
				return
			}
		}
	}()
	go func() { // consumer
		defer wg.Done()
		buf := make([]byte, 16)
		for i := 0; i < total; i++ {
			n, ok := q.Dequeue(buf)
			if !ok || n != 8 {
				select {
				case errCh <- fmt.Errorf("dequeue %d: n=%d ok=%v", i, n, ok):
				default:
				}
				return
			}
			if got := binary.LittleEndian.Uint64(buf); got != uint64(i) {
				select {
				case errCh <- fmt.Errorf("order violated at %d: got %d", i, got):
				default:
				}
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

func TestQueueVariableSizeMessages(t *testing.T) {
	q, _ := NewQueue(8, 64)
	var wg sync.WaitGroup
	wg.Add(1)
	const rounds = 5000
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			msg := bytes.Repeat([]byte{byte(i)}, 1+i%64)
			q.Enqueue(msg)
		}
	}()
	buf := make([]byte, 64)
	for i := 0; i < rounds; i++ {
		n, ok := q.Dequeue(buf)
		if !ok {
			t.Fatalf("dequeue %d failed", i)
		}
		want := 1 + i%64
		if n != want {
			t.Fatalf("msg %d: len %d, want %d", i, n, want)
		}
		for _, b := range buf[:n] {
			if b != byte(i) {
				t.Fatalf("msg %d corrupted", i)
			}
		}
	}
	wg.Wait()
}

// waitFlag polls until a side of q is observed parked: the parked flag is
// set and stays set until a publish or Close wakes that side. The test
// deadline, not this loop, bounds a side that never parks.
func waitFlag(flag *atomic.Bool) {
	for !flag.Load() {
		runtime.Gosched()
	}
}

// recvWithin fails the test if nothing arrives on ch within a generous
// bound: a lost wakeup shows as this failure rather than a hung suite.
func recvWithin[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: parked side never woke", what)
		panic("unreachable")
	}
}

func TestQueueParkedConsumerWokenByEnqueue(t *testing.T) {
	q, _ := NewQueue(4, 8)
	got := make(chan string)
	go func() {
		buf := make([]byte, 8)
		n, ok := q.Dequeue(buf)
		if !ok {
			n = 0
		}
		got <- string(buf[:n])
	}()
	waitFlag(&q.consParked)
	if !q.Enqueue([]byte("wake")) {
		t.Fatal("enqueue failed")
	}
	if s := recvWithin(t, got, "consumer"); s != "wake" {
		t.Fatalf("parked consumer got %q, want %q", s, "wake")
	}
}

func TestQueueParkedProducerWokenByDequeue(t *testing.T) {
	q, _ := NewQueue(2, 8)
	q.TryEnqueue([]byte("a"))
	q.TryEnqueue([]byte("b"))
	done := make(chan bool)
	go func() { done <- q.Enqueue([]byte("c")) }()
	waitFlag(&q.prodParked)
	buf := make([]byte, 8)
	if n, ok := q.TryDequeue(buf); !ok || string(buf[:n]) != "a" {
		t.Fatalf("dequeue = %q, %v", buf[:n], ok)
	}
	if !recvWithin(t, done, "producer") {
		t.Fatal("parked producer's Enqueue reported closed")
	}
	for _, want := range []string{"b", "c"} {
		if n, ok := q.TryDequeue(buf); !ok || string(buf[:n]) != want {
			t.Fatalf("dequeue = %q, %v; want %q", buf[:n], ok, want)
		}
	}
}

// TestQueueCloseWakesParked parks one side, then closes the queue twice
// from the other side and from the parked side's own end: Close must wake
// the sleeper on either end and be safe to repeat.
func TestQueueCloseWakesParked(t *testing.T) {
	for _, tc := range []struct {
		name   string
		full   bool // park the producer on a full ring, else the consumer on an empty one
		closer string
	}{
		{"consumer/closed-by-producer", false, "peer"},
		{"consumer/closed-by-consumer-end", false, "self"},
		{"producer/closed-by-consumer", true, "peer"},
		{"producer/closed-by-producer-end", true, "self"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, _ := NewQueue(2, 8)
			done := make(chan bool)
			flag := &q.consParked
			if tc.full {
				q.TryEnqueue([]byte("a"))
				q.TryEnqueue([]byte("b"))
				flag = &q.prodParked
				go func() { done <- q.Enqueue([]byte("c")) }()
			} else {
				go func() {
					_, ok := q.Dequeue(make([]byte, 8))
					done <- ok
				}()
			}
			waitFlag(flag)
			if tc.closer == "self" {
				// The parked side's end (e.g. a conn closing both of
				// its channels) calls Close from another goroutine.
				go q.Close()
			}
			q.Close()
			q.Close()
			if recvWithin(t, done, tc.name) {
				t.Fatal("operation on a closed queue reported success")
			}
			if tc.full {
				// Entries enqueued before Close stay receivable.
				buf := make([]byte, 8)
				for _, want := range []string{"a", "b"} {
					if n, ok := q.Dequeue(buf); !ok || string(buf[:n]) != want {
						t.Fatalf("drain = %q, %v; want %q", buf[:n], ok, want)
					}
				}
			}
		})
	}
}

// TestQueueParkStress moves a long sequence through a capacity-2 ring and
// forces both sides to park again and again: every parkEvery messages the
// producer waits until the consumer is observed parked on the empty ring,
// and half a period later the consumer waits until the producer is
// observed parked on the full ring. No message may be lost or reordered.
func TestQueueParkStress(t *testing.T) {
	const total, parkEvery = 20000, 100
	q, _ := NewQueue(2, 16)
	errCh := make(chan error, 1)
	go func() { // producer
		msg := make([]byte, 8)
		for i := 0; i < total; i++ {
			if i%parkEvery == 0 && i > 0 {
				waitFlag(&q.consParked)
			}
			binary.LittleEndian.PutUint64(msg, uint64(i))
			if !q.Enqueue(msg) {
				errCh <- fmt.Errorf("enqueue %d failed", i)
				return
			}
		}
	}()
	go func() { // consumer
		buf := make([]byte, 16)
		for i := 0; i < total; i++ {
			if i%parkEvery == parkEvery/2 {
				waitFlag(&q.prodParked)
			}
			n, ok := q.Dequeue(buf)
			if !ok || n != 8 {
				errCh <- fmt.Errorf("dequeue %d: n=%d ok=%v", i, n, ok)
				return
			}
			if got := binary.LittleEndian.Uint64(buf); got != uint64(i) {
				errCh <- fmt.Errorf("order violated at %d: got %d", i, got)
				return
			}
		}
		errCh <- nil
	}()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("stress run hung: a parked side was never woken")
	}
}
