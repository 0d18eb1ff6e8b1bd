// GTS pipeline: the paper's first application scenario end to end. A
// 4-rank GTS proxy emits zion and electron particle data every step
// through FlexIO's process-group-oriented pattern; 4 helper-core
// analytics ranks consume their partner ranks' groups and run the full
// chain — distribution function, ~20% velocity range query, 1-D and 2-D
// histograms. A data-conditioning plug-in deployed from the reader side
// samples the electron array in the transport before it is delivered.
package main

import (
	"fmt"
	"log"
	"sync"

	"flexio/internal/adios"
	"flexio/internal/apps/gts"
	"flexio/internal/dcplugin"
	"flexio/internal/directory"
	"flexio/internal/evpath"
)

const (
	ranks = 4
	steps = 3
	// Small particle counts keep the example quick; the production run
	// uses ~2M particles (110 MB) per rank.
	baseParticles = 5000
)

func main() {
	net := evpath.NewNet(nil)
	ctx := adios.NewContext(net, directory.NewMem(), "", nil) // stream engine defaults
	io, err := ctx.DeclareIO("particles")
	if err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	// --- GTS side ---
	for rank := 0; rank < ranks; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := io.OpenWriter("gts.particles", rank, ranks)
			if err != nil {
				log.Fatal(err)
			}
			for s := 0; s < steps; s++ {
				if err := w.BeginStep(int64(s)); err != nil {
					log.Fatal(err)
				}
				// Particle counts drift across steps (the effect that
				// motivates the RDMA registration cache).
				n := gts.ParticleCount(baseParticles, rank, s)
				zions := gts.Generate(gts.Zion, rank, s, n)
				electrons := gts.Generate(gts.Electron, rank, s, n)
				if err := w.WriteProcessGroup("zion", 8, dcplugin.FloatsToBytes(zions)); err != nil {
					log.Fatal(err)
				}
				if err := w.WriteProcessGroup("electron", 8, dcplugin.FloatsToBytes(electrons)); err != nil {
					log.Fatal(err)
				}
				if err := w.EndStep(); err != nil {
					log.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}

	// --- Analytics side: helper-core style, rank i claims writer i ---
	var mu sync.Mutex
	type stat struct{ total, selected int }
	stats := map[int]*stat{}
	for rank := 0; rank < ranks; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := io.OpenReader("gts.particles", rank, ranks)
			if err != nil {
				log.Fatal(err)
			}
			if rank == 0 {
				// Deploy a sampling plug-in into the I/O path: electrons
				// are decimated 4:1 in the transport before delivery.
				if err := r.InstallPlugin(electronSampler()); err != nil {
					log.Fatal(err)
				}
			}
			if err := r.SelectProcessGroups([]int{rank}); err != nil {
				log.Fatal(err)
			}
			for {
				step, ok := r.BeginStep()
				if !ok {
					break
				}
				groups, err := r.ReadProcessGroups("zion")
				if err != nil {
					log.Fatal(err)
				}
				for _, payload := range groups {
					particles := dcplugin.BytesToFloats(payload)
					a, err := gts.AnalyzeStep(particles)
					if err != nil {
						log.Fatal(err)
					}
					mu.Lock()
					st := stats[rank]
					if st == nil {
						st = &stat{}
						stats[rank] = st
					}
					st.total += a.TotalCount
					st.selected += a.Selected
					mu.Unlock()
					if rank == 0 {
						fmt.Printf("step %d rank %d: %d zions, query kept %.1f%%, dist-fn peak bin %d\n",
							step, rank, a.TotalCount,
							100*float64(a.Selected)/float64(a.TotalCount), argmax(a.DistFn))
					}
				}
				r.EndStep() //nolint:errcheck
			}
			r.Close() //nolint:errcheck
		}()
	}
	wg.Wait()

	var total, selected int
	for _, st := range stats {
		total += st.total
		selected += st.selected
	}
	fmt.Printf("gts-pipeline: analyzed %d particles across %d ranks x %d steps; overall selectivity %.1f%%\n",
		total, ranks, steps, 100*float64(selected)/float64(total))
}

// electronSampler builds the mobile codelet deployed into the I/O path:
// it keeps every 4th *whole particle* (7 consecutive attributes) and only
// touches the electron array, letting zions pass unmodified — variable
// selection, record-aware sampling and annotation in one plug-in.
func electronSampler() dcplugin.Plugin {
	return dcplugin.Plugin{
		Name: "electron-sampler",
		Source: fmt.Sprintf(`
			if (getstr("var") == "electron") {
				stride = %d;
				for (i = 0; i + stride <= len(data); i = i + 4*stride) {
					for (j = 0; j < stride; j = j + 1) {
						push(data[i + j]);
					}
				}
				set("dc.sample", 4);
			}
		`, gts.NumAttrs),
	}
}

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
