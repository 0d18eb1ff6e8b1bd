package experiment

import (
	"fmt"
	"sync"
	"time"

	"flexio/internal/core"
	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/monitor"
	"flexio/internal/ndarray"
)

// reconfigRow is one measured mid-run reconfiguration.
type reconfigRow struct {
	// DrainNs is the writer-observed quiesce time: request arrival to
	// application at the next step boundary (the session's
	// reconfig.drain_ns counter).
	DrainNs int64
	// ReconfigWallNs is the reader-observed wall time of the whole switch:
	// request, ack, replay capture, re-listen, plug-in re-ship.
	ReconfigWallNs int64
	// Epoch is the session epoch after the switch (always 2 here:
	// exactly one reconfiguration per scenario).
	Epoch uint64
}

// reconfigScenario runs a real 2-writer core stream end to end: three
// steps to oldN readers, a Reconfigure to newN ranks (new decomposition,
// new node placement), three more steps, then EOS. It returns the
// measured drain and wall costs.
func reconfigScenario(name string, oldN, newN int, nodes []int) (reconfigRow, error) {
	var row reconfigRow
	const nw, pre, post = 2, 3, 3
	// Off-node ranks cross a loopback socket of the one process's Net.
	net := evpath.NewNet(nil)
	if err := net.ServeLoopback(); err != nil {
		return row, err
	}
	defer net.CloseTCP()
	dir := directory.NewMem()
	wm := monitor.New("writers")

	shape := []int64{64, 64}
	wdec, err := ndarray.BlockDecompose(shape, ndarray.FactorGrid(nw, 2))
	if err != nil {
		return row, err
	}
	oldDec, err := ndarray.BlockDecompose(shape, ndarray.FactorGrid(oldN, 2))
	if err != nil {
		return row, err
	}
	newDec, err := ndarray.BlockDecompose(shape, ndarray.FactorGrid(newN, 2))
	if err != nil {
		return row, err
	}

	opts := core.Options{
		// Initial placement: everything on node 0 over shm; the
		// reconfiguration ships `nodes` and moves ranks across nodes.
		Transport: func(w, r int) (evpath.TransportKind, int, int) {
			return evpath.ShmTransport, 0, 0
		},
		WriterNode: func(w int) int { return 0 },
	}
	stream := "bench-reconfig-" + name
	wg, err := core.NewWriterGroup(net, dir, stream, nw, opts, wm)
	if err != nil {
		return row, err
	}
	rg, err := core.NewReaderGroup(net, dir, stream, oldN, nil)
	if err != nil {
		return row, err
	}

	errCh := make(chan error, nw+oldN+newN)
	var writers sync.WaitGroup
	for w := 0; w < nw; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			wr := wg.Writer(w)
			payload := make([]byte, wdec.Boxes[w].NumElements()*8)
			write := func(s int) error {
				if err := wr.BeginStep(int64(s)); err != nil {
					return err
				}
				if err := wr.Write(core.VarMeta{Name: "field", Kind: core.GlobalArrayVar,
					ElemSize: 8, GlobalShape: shape, Box: wdec.Boxes[w]}, payload); err != nil {
					return err
				}
				return wr.EndStep()
			}
			for s := 0; s < pre; s++ {
				if err := write(s); err != nil {
					errCh <- err
					return
				}
			}
			// Hold the boundary until the reconfig request is parked so the
			// drain window is what gets measured, not writer think-time.
			for wg.SessionState() != core.StateReconfiguring {
				time.Sleep(100 * time.Microsecond)
			}
			for s := pre; s < pre+post; s++ {
				if err := write(s); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}

	consume := func(rd *core.Reader, from, to int) error {
		for s := from; s < to; s++ {
			step, ok := rd.BeginStep()
			if !ok || step != int64(s) {
				return fmt.Errorf("reader %d: step %d ok=%v want %d", rd.Rank, step, ok, s)
			}
			buf, _, err := rd.ReadArray("field")
			if err != nil {
				return err
			}
			rd.ReleaseArray(buf)
			if err := rd.EndStep(); err != nil {
				return err
			}
		}
		return nil
	}

	var olds sync.WaitGroup
	for r := 0; r < oldN; r++ {
		r := r
		olds.Add(1)
		go func() {
			defer olds.Done()
			rd := rg.Reader(r)
			if err := rd.SelectArray("field", oldDec.Boxes[r]); err != nil {
				errCh <- err
				return
			}
			if err := consume(rd, 0, pre); err != nil {
				errCh <- err
			}
		}()
	}
	olds.Wait()

	start := time.Now()
	err = rg.Reconfigure(core.ReconfigSpec{
		NReaders: newN,
		Arrays:   map[string][]ndarray.Box{"field": newDec.Boxes},
		Nodes:    nodes,
	})
	row.ReconfigWallNs = time.Since(start).Nanoseconds()
	if err != nil {
		return row, err
	}

	var news sync.WaitGroup
	for r := 0; r < newN; r++ {
		r := r
		news.Add(1)
		go func() {
			defer news.Done()
			if err := consume(rg.Reader(r), pre, pre+post); err != nil {
				errCh <- err
			}
		}()
	}
	writers.Wait()
	if err := wg.Close(); err != nil {
		return row, err
	}
	news.Wait()
	rg.Close()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return row, err
		}
	}

	rep := wm.Snapshot()
	row.DrainNs = rep.Counts["reconfig.drain_ns"]
	row.Epoch = uint64(rep.Gauges["session.epoch"])
	if rep.Counts["reconfig.count"] != 1 {
		return row, fmt.Errorf("scenario %s: reconfig.count = %d, want 1", name, rep.Counts["reconfig.count"])
	}
	return row, nil
}

// ReconfigBench measures mid-run reconfiguration cost on real core
// streams across N -> N' deltas (selection change only, grow, shrink,
// placement move).
func ReconfigBench() (*Figure, error) {
	scenarios := []struct {
		name       string
		oldN, newN int
		nodes      []int
	}{
		{"resel-2to2", 2, 2, nil},           // decomposition change only
		{"grow-2to3", 2, 3, []int{0, 1, 1}}, // add a rank, move two off-node
		{"grow-2to4", 2, 4, []int{0, 0, 1, 1}},
		{"shrink-4to2", 4, 2, []int{1, 1}}, // shrink onto a staging node
	}
	fig := &Figure{
		ID:     "RECONFIG",
		Title:  "Mid-run reconfiguration cost vs. N -> N' delta (2 writers, real streams)",
		XLabel: "scenario",
		YLabel: "microseconds",
	}
	drain := Series{Label: "writer drain (request -> boundary)"}
	wall := Series{Label: "reader wall (request -> streaming)"}
	for i, sc := range scenarios {
		row, err := reconfigScenario(sc.name, sc.oldN, sc.newN, sc.nodes)
		if err != nil {
			return nil, fmt.Errorf("reconfig %s: %w", sc.name, err)
		}
		x := float64(i)
		drain.X = append(drain.X, x)
		drain.Y = append(drain.Y, float64(row.DrainNs)/1e3)
		wall.X = append(wall.X, x)
		wall.Y = append(wall.Y, float64(row.ReconfigWallNs)/1e3)
		fig.Notes = append(fig.Notes, fmt.Sprintf("x=%d: %s (N %d -> %d), epoch %d",
			i, sc.name, sc.oldN, sc.newN, row.Epoch))
	}
	fig.Series = append(fig.Series, drain, wall)
	return fig, nil
}
