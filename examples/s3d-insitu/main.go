// S3D in-situ visualization: the paper's second application scenario. An
// 8-rank S3D_Box proxy advances 22 species fields on a 3-D block-
// decomposed domain and writes them as global arrays every few cycles;
// 2 staging-style reader ranks re-assemble sub-volumes via FlexIO's MxN
// redistribution, volume-render their halves, composite, and write a PPM
// image per selected species — the paper's full S3D -> staging ->
// visualization pipeline in miniature.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"flexio/internal/adios"
	"flexio/internal/apps/s3d"
	"flexio/internal/dcplugin"
	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/ndarray"
)

const (
	nSim    = 8
	nViz    = 2
	ioSteps = 2
	cycles  = 3 // solver cycles between I/O actions
	species = 3 // render the first few species to keep the example quick
)

func main() {
	outDir, err := os.MkdirTemp("", "flexio-s3d")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("writing images to", outDir)

	net := evpath.NewNet(nil)
	ctx := adios.NewContext(net, directory.NewMem(), outDir, nil)
	io, err := ctx.DeclareIO("species")
	if err != nil {
		log.Fatal(err)
	}

	dec, err := s3d.GlobalDecomposition(nSim)
	if err != nil {
		log.Fatal(err)
	}
	globalShape := dec.Global.Shape()
	// Readers split the global volume along X.
	rdec, err := ndarray.BlockDecompose(globalShape, []int{nViz, 1, 1})
	if err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	// --- S3D_Box side ---
	for rank := 0; rank < nSim; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			solver, err := s3d.NewSolver(rank, s3d.LocalShape)
			if err != nil {
				log.Fatal(err)
			}
			w, err := io.OpenWriter("s3d.species", rank, nSim)
			if err != nil {
				log.Fatal(err)
			}
			for step := 0; step < ioSteps; step++ {
				for c := 0; c < cycles; c++ {
					solver.Step()
				}
				if err := w.BeginStep(int64(step)); err != nil {
					log.Fatal(err)
				}
				for sp := 0; sp < species; sp++ {
					field, err := solver.Species(sp)
					if err != nil {
						log.Fatal(err)
					}
					if err := w.WriteFloat64s(s3d.SpeciesName(sp), globalShape, dec.Boxes[rank], field); err != nil {
						log.Fatal(err)
					}
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

	// --- Visualization side ---
	images := make(chan string, ioSteps*species*nViz)
	for rank := 0; rank < nViz; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := io.OpenReader("s3d.species", rank, nViz)
			if err != nil {
				log.Fatal(err)
			}
			for sp := 0; sp < species; sp++ {
				if err := r.SelectArray(s3d.SpeciesName(sp), rdec.Boxes[rank]); err != nil {
					log.Fatal(err)
				}
			}
			for {
				step, ok := r.BeginStep()
				if !ok {
					break
				}
				for sp := 0; sp < species; sp++ {
					raw, box, err := r.ReadBytes(s3d.SpeciesName(sp))
					if err != nil {
						log.Fatal(err)
					}
					img, err := s3d.RenderVolume(dcplugin.BytesToFloats(raw), box.Shape())
					if err != nil {
						log.Fatal(err)
					}
					name := filepath.Join(outDir,
						fmt.Sprintf("step%d-%s-part%d.ppm", step, s3d.SpeciesName(sp), rank))
					f, err := os.Create(name)
					if err != nil {
						log.Fatal(err)
					}
					if err := s3d.WritePPM(f, img); err != nil {
						log.Fatal(err)
					}
					f.Close() //nolint:errcheck
					images <- name
				}
				r.EndStep() //nolint:errcheck
			}
			r.Close() //nolint:errcheck
		}()
	}
	wg.Wait()
	close(images)
	count := 0
	for range images {
		count++
	}
	fmt.Printf("s3d-insitu: rendered %d sub-volume images (%d steps x %d species x %d viz ranks)\n",
		count, ioSteps, species, nViz)
}
