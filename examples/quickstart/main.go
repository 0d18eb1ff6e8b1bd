// Quickstart: couple a 4-rank writer "simulation" to a 2-rank reader
// "analytics" through a FlexIO stream, exactly as Figure 3 of the paper:
// a 2-D global array block-decomposed among the writers is re-distributed
// to the readers' row decomposition by the middleware. Switching the
// engine from "stream" to "file" in the embedded XML moves the same code
// to offline placement with zero application changes.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"sync"

	"flexio/internal/adios"
	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/ndarray"
)

const configXML = `
<adios-config>
  <io name="demo">
    <engine type="stream">
      <parameter name="caching" value="CACHING_ALL"/>
    </engine>
  </io>
</adios-config>`

const (
	nWriters = 4
	nReaders = 2
	steps    = 3
)

func main() {
	cfg, err := adios.ParseConfig(strings.NewReader(configXML))
	if err != nil {
		log.Fatal(err)
	}
	// The FlexIO environment: connection manager over an emulated Gemini
	// fabric, an in-process directory service, and a scratch dir for the
	// file-mode engine.
	fsRoot, err := os.MkdirTemp("", "flexio-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(fsRoot)
	net := evpath.NewNet(nil)
	ctx := adios.NewContext(net, directory.NewMem(), fsRoot, cfg)
	io, err := ctx.DeclareIO("demo")
	if err != nil {
		log.Fatal(err)
	}

	shape := []int64{8, 8}
	wdec, _ := ndarray.BlockDecompose(shape, []int{2, 2}) // 4 writers, 2x2 grid
	rdec, _ := ndarray.BlockDecompose(shape, []int{2, 1}) // 2 readers, rows

	var wg sync.WaitGroup
	// --- Simulation side: each rank writes its block every step ---
	for rank := 0; rank < nWriters; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := io.OpenWriter("quickstart", rank, nWriters)
			if err != nil {
				log.Fatalf("writer %d: %v", rank, err)
			}
			box := wdec.Boxes[rank]
			for s := int64(0); s < steps; s++ {
				if err := w.BeginStep(s); err != nil {
					log.Fatal(err)
				}
				data := make([]float64, box.NumElements())
				for i := range data {
					data[i] = float64(rank)*100 + float64(s)
				}
				if err := w.WriteFloat64s("field", shape, box, data); err != nil {
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

	// --- Analytics side: each rank reads its row band ---
	results := make([][]string, nReaders)
	for rank := 0; rank < nReaders; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := io.OpenReader("quickstart", rank, nReaders)
			if err != nil {
				log.Fatalf("reader %d: %v", rank, err)
			}
			if err := r.SelectArray("field", rdec.Boxes[rank]); err != nil {
				log.Fatal(err)
			}
			for {
				step, ok := r.BeginStep()
				if !ok {
					break // End-of-Stream: the simulation closed the file
				}
				data, box, err := r.ReadFloat64s("field")
				if err != nil {
					log.Fatal(err)
				}
				var sum float64
				for _, v := range data {
					sum += v
				}
				results[rank] = append(results[rank],
					fmt.Sprintf("reader %d step %d: box %v mean=%.2f", rank, step, box, sum/float64(len(data))))
				r.EndStep() //nolint:errcheck
			}
			r.Close() //nolint:errcheck
		}()
	}
	wg.Wait()
	for _, rs := range results {
		for _, line := range rs {
			fmt.Println(line)
		}
	}
	fmt.Println("quickstart: OK (engine:", io.Engine()+")")
}
