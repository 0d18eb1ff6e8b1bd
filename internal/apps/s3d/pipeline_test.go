package s3d_test

// Integration test: S3D species move through FlexIO's global-array MxN
// redistribution to visualization ranks; the rendered-and-composited
// image must equal the image rendered directly from the globally
// assembled field (the middleware must be invisible to the science).

import (
	"math"
	"sync"
	"testing"

	"flexio/internal/adios"
	"flexio/internal/apps/s3d"
	"flexio/internal/dcplugin"
	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/ndarray"
)

func TestS3DRenderThroughStreamMatchesDirect(t *testing.T) {
	const (
		nSim = 8
		nViz = 2
	)
	dec, err := s3d.GlobalDecomposition(nSim)
	if err != nil {
		t.Fatal(err)
	}
	globalShape := dec.Global.Shape()
	rdec, err := ndarray.BlockDecompose(globalShape, []int{nViz, 1, 1})
	if err != nil {
		t.Fatal(err)
	}

	// Build all solvers up front; advance them identically. The oracle
	// assembles the global field directly from the solver outputs.
	solvers := make([]*s3d.Solver, nSim)
	for r := range solvers {
		s, err := s3d.NewSolver(r, s3d.LocalShape)
		if err != nil {
			t.Fatal(err)
		}
		s.Step()
		solvers[r] = s
	}
	const sp = 1
	globalField := make([]byte, dec.Global.NumElements()*8)
	for r, s := range solvers {
		f, _ := s.Species(sp)
		if err := ndarray.Unpack(globalField, dcplugin.FloatsToBytes(f),
			dec.Global, dec.Boxes[r], 8); err != nil {
			t.Fatal(err)
		}
	}

	net := evpath.NewNet(nil)
	ctx := adios.NewContext(net, directory.NewMem(), t.TempDir(), nil)
	io, err := ctx.DeclareIO("species")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for rank := 0; rank < nSim; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := io.OpenWriter("s3d.it", rank, nSim)
			if err != nil {
				t.Errorf("writer %d: %v", rank, err)
				return
			}
			w.BeginStep(0) //nolint:errcheck
			f, _ := solvers[rank].Species(sp)
			if err := w.WriteFloat64s("f", globalShape, dec.Boxes[rank], f); err != nil {
				t.Errorf("writer %d: %v", rank, err)
				return
			}
			if err := w.EndStep(); err != nil {
				t.Errorf("writer %d: %v", rank, err)
				return
			}
			w.Close() //nolint:errcheck
		}()
	}

	parts := make([]*s3d.Image, nViz)
	for rank := 0; rank < nViz; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := io.OpenReader("s3d.it", rank, nViz)
			if err != nil {
				t.Errorf("reader %d: %v", rank, err)
				return
			}
			if err := r.SelectArray("f", rdec.Boxes[rank]); err != nil {
				t.Error(err)
				return
			}
			if _, ok := r.BeginStep(); !ok {
				t.Errorf("reader %d: no step", rank)
				return
			}
			raw, box, err := r.ReadBytes("f")
			if err != nil {
				t.Error(err)
				return
			}
			img, err := s3d.RenderVolume(dcplugin.BytesToFloats(raw), box.Shape())
			if err != nil {
				t.Error(err)
				return
			}
			parts[rank] = img
			r.EndStep() //nolint:errcheck
			r.Close()   //nolint:errcheck
		}()
	}
	wg.Wait()
	if parts[0] == nil || parts[1] == nil {
		t.Fatal("rendering incomplete")
	}

	// Composite front-to-back along X (reader 0 owns the front half).
	got, err := s3d.CompositeOver(parts[0], parts[1])
	if err != nil {
		t.Fatal(err)
	}
	direct, err := s3d.RenderVolume(dcplugin.BytesToFloats(globalField), globalShape)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != direct.W || got.H != direct.H {
		t.Fatalf("image sizes differ: %dx%d vs %dx%d", got.W, got.H, direct.W, direct.H)
	}
	// Compositing of split ray segments approximates the full ray; demand
	// close agreement (the transfer function is smooth).
	var maxErr float64
	for i := range got.Pix {
		if d := math.Abs(got.Pix[i] - direct.Pix[i]); d > maxErr {
			maxErr = d
		}
	}
	var peak float64
	for _, v := range direct.Pix {
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		t.Fatal("direct render blank")
	}
	if maxErr > 0.12*peak {
		t.Fatalf("composited image deviates %.3f (peak %.3f)", maxErr, peak)
	}
}
