package gts_test

// Integration test: the full GTS scenario over real FlexIO streams —
// particle generation, process-group movement through the middleware, a
// writer-side deployed conditioning plug-in, and the analytics chain —
// verifying statistics against a direct (no-middleware) oracle.

import (
	"fmt"
	"sync"
	"testing"

	"flexio/internal/adios"
	"flexio/internal/apps/gts"
	"flexio/internal/dcplugin"
	"flexio/internal/directory"
	"flexio/internal/evpath"
)

func TestGTSPipelineOverStream(t *testing.T) {
	const (
		ranks = 4
		steps = 3
		base  = 3000
	)
	net := evpath.NewNet(nil)
	ctx := adios.NewContext(net, directory.NewMem(), t.TempDir(), nil)
	io, err := ctx.DeclareIO("particles")
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: run the analytics chain directly on the generated data.
	type key struct{ rank, step int }
	oracle := map[key]*gts.Analysis{}
	for r := 0; r < ranks; r++ {
		for s := 0; s < steps; s++ {
			n := gts.ParticleCount(base, r, s)
			a, err := gts.AnalyzeStep(gts.Generate(gts.Zion, r, s, n))
			if err != nil {
				t.Fatal(err)
			}
			oracle[key{r, s}] = a
		}
	}

	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := io.OpenWriter("gts.it", rank, ranks)
			if err != nil {
				t.Errorf("writer %d: %v", rank, err)
				return
			}
			for s := 0; s < steps; s++ {
				if err := w.BeginStep(int64(s)); err != nil {
					t.Errorf("writer %d: %v", rank, err)
					return
				}
				n := gts.ParticleCount(base, rank, s)
				zions := gts.Generate(gts.Zion, rank, s, n)
				if err := w.WriteProcessGroup("zion", 8, dcplugin.FloatsToBytes(zions)); err != nil {
					t.Errorf("writer %d: %v", rank, err)
					return
				}
				if err := w.EndStep(); err != nil {
					t.Errorf("writer %d: %v", rank, err)
					return
				}
			}
			w.Close() //nolint:errcheck
		}()
	}

	var mu sync.Mutex
	checked := 0
	for rank := 0; rank < ranks; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := io.OpenReader("gts.it", rank, ranks)
			if err != nil {
				t.Errorf("reader %d: %v", rank, err)
				return
			}
			if err := r.SelectProcessGroups([]int{rank}); err != nil {
				t.Error(err)
				return
			}
			for {
				step, ok := r.BeginStep()
				if !ok {
					break
				}
				groups, err := r.ReadProcessGroups("zion")
				if err != nil {
					t.Error(err)
					return
				}
				a, err := gts.AnalyzeStep(dcplugin.BytesToFloats(groups[rank]))
				if err != nil {
					t.Error(err)
					return
				}
				want := oracle[struct{ rank, step int }{rank, int(step)}]
				if a.TotalCount != want.TotalCount || a.Selected != want.Selected {
					t.Errorf("rank %d step %d: counts %d/%d, oracle %d/%d",
						rank, step, a.TotalCount, a.Selected, want.TotalCount, want.Selected)
					return
				}
				for i := range a.DistFn {
					if a.DistFn[i] != want.DistFn[i] {
						t.Errorf("rank %d step %d: distribution fn differs at bin %d", rank, step, i)
						return
					}
				}
				mu.Lock()
				checked++
				mu.Unlock()
				r.EndStep() //nolint:errcheck
			}
			r.Close() //nolint:errcheck
		}()
	}
	wg.Wait()
	if checked != ranks*steps {
		t.Fatalf("verified %d rank-steps, want %d", checked, ranks*steps)
	}
}

func TestGTSQueryPluginAtSourceMatchesLocalQuery(t *testing.T) {
	// Deploy the velocity range query as a writer-side plug-in; the
	// delivered subset must equal the local RangeQuery result.
	const n = 4000
	net := evpath.NewNet(nil)
	ctx := adios.NewContext(net, directory.NewMem(), t.TempDir(), nil)
	io, err := ctx.DeclareIO("q")
	if err != nil {
		t.Fatal(err)
	}
	w, err := io.OpenWriter("gts.q", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := io.OpenReader("gts.q", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.SelectProcessGroups([]int{0}) //nolint:errcheck

	query := dcplugin.Plugin{
		Name: "vquery",
		Source: fmt.Sprintf(`
			for (i = 0; i + %d <= len(data); i = i + %d) {
				v = data[i + %d];
				if (v >= %g && v < %g) {
					for (j = 0; j < %d; j = j + 1) { push(data[i + j]); }
				}
			}`, gts.NumAttrs, gts.NumAttrs, gts.AttrVPar,
			gts.DefaultQueryLo, gts.DefaultQueryHi, gts.NumAttrs),
	}
	if err := r.DeployPluginToWriters(query); err != nil {
		t.Fatal(err)
	}

	particles := gts.Generate(gts.Zion, 0, 0, n)
	want, err := gts.RangeQuery(particles, gts.AttrVPar, gts.DefaultQueryLo, gts.DefaultQueryHi)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		if err := w.BeginStep(0); err != nil {
			done <- err
			return
		}
		if err := w.WriteProcessGroup("zion", 8, dcplugin.FloatsToBytes(particles)); err != nil {
			done <- err
			return
		}
		if err := w.EndStep(); err != nil {
			done <- err
			return
		}
		done <- w.Close()
	}()
	if _, ok := r.BeginStep(); !ok {
		t.Fatal("no step")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	groups, err := r.ReadProcessGroups("zion")
	if err != nil {
		t.Fatal(err)
	}
	got := dcplugin.BytesToFloats(groups[0])
	if len(got) != len(want) {
		t.Fatalf("plug-in selected %d values, local query %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selection differs at %d", i)
		}
	}
	r.EndStep() //nolint:errcheck
	r.Close()   //nolint:errcheck
}
