package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"flexio/internal/monitor"
	"flexio/internal/ndarray"
)

func TestSessionStateStrings(t *testing.T) {
	for s, want := range map[SessionState]string{
		StateConnecting:    "connecting",
		StateHandshaking:   "handshaking",
		StateStreaming:     "streaming",
		StateReconfiguring: "reconfiguring",
		StateDraining:      "draining",
		StateClosed:        "closed",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if SessionState(99).String() == "" {
		t.Error("unknown state must stringify")
	}
}

func TestSessionTransitions(t *testing.T) {
	s := newSession("test", nil)
	if s.State() != StateConnecting || s.Epoch() != 1 {
		t.Fatalf("fresh session: %v epoch %d", s.State(), s.Epoch())
	}
	// The full lifecycle including one reconfiguration round-trip.
	for _, to := range []SessionState{
		StateHandshaking, StateStreaming, StateReconfiguring,
		StateHandshaking, StateStreaming, StateDraining, StateClosed,
	} {
		if err := s.transition(to); err != nil {
			t.Fatalf("transition to %v: %v", to, err)
		}
	}
	if s.State() != StateClosed {
		t.Fatalf("state = %v", s.State())
	}
	// Terminal: nothing leaves Closed.
	if err := s.transition(StateStreaming); err == nil {
		t.Error("Closed -> Streaming must be illegal")
	}
}

func TestSessionIllegalEdges(t *testing.T) {
	cases := []struct {
		from, to SessionState
	}{
		{StateConnecting, StateStreaming},
		{StateConnecting, StateReconfiguring},
		{StateHandshaking, StateReconfiguring},
		{StateStreaming, StateConnecting},
		{StateDraining, StateStreaming},
		{StateDraining, StateReconfiguring},
	}
	for _, c := range cases {
		s := newSession("test", nil)
		s.mu.Lock()
		s.state = c.from
		s.mu.Unlock()
		if err := s.transition(c.to); err == nil {
			t.Errorf("%v -> %v must be illegal", c.from, c.to)
		}
	}
}

func TestSessionSelfTransitionIsNoop(t *testing.T) {
	mon := monitor.New("m")
	s := newSession("test", mon)
	if err := s.transition(StateConnecting); err != nil {
		t.Fatal(err)
	}
	if n := mon.Snapshot().Counts["session.state.connecting"]; n != 0 {
		t.Fatalf("self-transition recorded %d times", n)
	}
}

func TestSessionMonitoring(t *testing.T) {
	mon := monitor.New("m")
	s := newSession("test", mon)
	s.transition(StateHandshaking) //nolint:errcheck
	s.transition(StateStreaming)   //nolint:errcheck
	s.tryTransition(StateConnecting)
	s.bumpEpoch()
	rep := mon.Snapshot()
	if rep.Counts["session.state.handshaking"] != 1 || rep.Counts["session.state.streaming"] != 1 {
		t.Errorf("transition counters: %v", rep.Counts)
	}
	if rep.Counts["session.transition.rejected"] != 1 {
		t.Errorf("rejected = %d, want 1", rep.Counts["session.transition.rejected"])
	}
	if rep.Gauges["session.epoch"] != 2 {
		t.Errorf("epoch gauge = %d, want 2", rep.Gauges["session.epoch"])
	}
}

func TestDataContactNames(t *testing.T) {
	if got := dataContact("gts.particles", 3, 2); got != "gts.particles.e3.r2" {
		t.Fatalf("dataContact = %q", got)
	}
	// Distinct epochs must never collide.
	if dataContact("s", 1, 12) == dataContact("s", 11, 2) {
		t.Fatal("epoch/rank ambiguity in contact names")
	}
}

// TestReaderCloseMidStreamNotifiesWriter is the teardown-asymmetry fix:
// a reader group closing mid-stream must propagate session-closed to the
// writer (whose next step fails with ErrSessionClosed instead of hanging
// or retrying into closed connections), and neither side may leak
// goroutines.
func TestReaderCloseMidStreamNotifiesWriter(t *testing.T) {
	base := runtime.NumGoroutine()

	h := newHarness(t)
	shape := []int64{16, 16}
	global := ndarray.BoxFromShape(shape)
	wdec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(2, 2))

	wgp, err := NewWriterGroup(h.net, h.dir, "hangup", 2, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, "hangup", 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 2)
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			wr := wgp.Writer(w)
			writeFieldSteps(t, wr, wdec.Boxes[w], shape, global, 0, 1)
			// Write the next step only after the hangup has landed, so the
			// failure path is deterministic.
			waitWriterState(t, wgp, StateDraining)
			wr.BeginStep(1) //nolint:errcheck
			meta := VarMeta{Name: "field", Kind: GlobalArrayVar, ElemSize: 8,
				GlobalShape: shape, Box: wdec.Boxes[w]}
			wr.Write(meta, fillArrayBytes(wdec.Boxes[w], global)) //nolint:errcheck
			errCh <- wr.EndStep()
		}()
	}

	rd := rg.Reader(0)
	if err := rd.SelectArray("field", global); err != nil {
		t.Fatal(err)
	}
	if _, ok := rd.BeginStep(); !ok {
		t.Fatal("no step 0")
	}
	if _, _, err := rd.ReadArray("field"); err != nil {
		t.Fatal(err)
	}
	rd.EndStep()
	// Hang up mid-stream: the writer still has steps to go.
	rg.Close()

	writers.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errCh; !errors.Is(err, ErrSessionClosed) {
			t.Errorf("writer EndStep after reader close = %v, want ErrSessionClosed", err)
		}
	}
	if st := wgp.SessionState(); st != StateDraining {
		t.Errorf("writer session = %v, want draining", st)
	}
	wgp.Close()
	if st := wgp.SessionState(); st != StateClosed {
		t.Errorf("writer session after Close = %v, want closed", st)
	}
	h.net.CloseTCP()

	// No goroutine leak: pumps, accept loops and workers must all exit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > base %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWriterCloseThenReaderEOS is the orderly direction, asserted here
// for symmetry: writer closes first, readers see EOS, nothing leaks.
func TestWriterCloseThenReaderEOS(t *testing.T) {
	base := runtime.NumGoroutine()
	runMxNSplit(t, 2, 2, Options{}, 2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > base %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
