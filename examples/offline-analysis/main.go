// Offline placement: the rightmost option in the paper's Figure 1. The
// "simulation" runs to completion writing BP-like step containers through
// the file engine; a completely separate "analytics job" then opens the
// same stream name and replays every step — using the *identical*
// read-side code the online examples use. The only difference between
// this and the stream examples is one word in the XML configuration
// ("users can seamlessly switch analytics to run offline when there are
// insufficient online resources").
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"sync"

	"flexio/internal/adios"
	"flexio/internal/apps/gts"
	"flexio/internal/dcplugin"
	"flexio/internal/directory"
	"flexio/internal/evpath"
)

const configXML = `
<adios-config>
  <io name="particles">
    <engine type="file"/>   <!-- switch to "stream" for online analytics -->
  </io>
</adios-config>`

const (
	ranks = 4
	steps = 3
)

func main() {
	cfg, err := adios.ParseConfig(strings.NewReader(configXML))
	if err != nil {
		log.Fatal(err)
	}
	fsRoot, err := os.MkdirTemp("", "flexio-offline")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(fsRoot)
	net := evpath.NewNet(nil)
	ctx := adios.NewContext(net, directory.NewMem(), fsRoot, cfg)
	io, err := ctx.DeclareIO("particles")
	if err != nil {
		log.Fatal(err)
	}

	// --- Job 1: the simulation runs and exits ---
	var sim sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		rank := rank
		sim.Add(1)
		go func() {
			defer sim.Done()
			w, err := io.OpenWriter("gts.particles", rank, ranks)
			if err != nil {
				log.Fatal(err)
			}
			for s := 0; s < steps; s++ {
				if err := w.BeginStep(int64(s)); err != nil {
					log.Fatal(err)
				}
				zions := gts.Generate(gts.Zion, rank, s, 2000)
				if err := w.WriteProcessGroup("zion", 8, dcplugin.FloatsToBytes(zions)); err != nil {
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
	sim.Wait()
	entries, _ := os.ReadDir(fsRoot + "/gts.particles.bp")
	fmt.Printf("simulation finished: %d artifacts in %s/gts.particles.bp\n", len(entries), fsRoot)

	// --- Job 2 (later): offline analytics over the stored steps ---
	r, err := io.OpenReader("gts.particles", 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := r.SelectProcessGroups([]int{0, 1, 2, 3}); err != nil {
		log.Fatal(err)
	}
	for {
		step, ok := r.BeginStep()
		if !ok {
			break // ".done" marker reached
		}
		groups, err := r.ReadProcessGroups("zion")
		if err != nil {
			log.Fatal(err)
		}
		total, selected := 0, 0
		for _, raw := range groups {
			a, err := gts.AnalyzeStep(dcplugin.BytesToFloats(raw))
			if err != nil {
				log.Fatal(err)
			}
			total += a.TotalCount
			selected += a.Selected
		}
		fmt.Printf("offline step %d: %d particles from %d writers, query kept %.1f%%\n",
			step, total, len(groups), 100*float64(selected)/float64(total))
		r.EndStep() //nolint:errcheck
	}
	r.Close() //nolint:errcheck
	fmt.Println("offline-analysis: OK")
}
