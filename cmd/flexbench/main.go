// Command flexbench regenerates the FlexIO paper's evaluation artifacts:
// every figure and table from Section IV plus the Figure 4 transport
// microbenchmark. Run a single experiment with -exp or everything with
// -exp all.
//
//	flexbench -list
//	flexbench -exp fig6a
//	flexbench -exp all
package main

import (
	"flag"
	"fmt"
	"os"

	"flexio/internal/experiment"
)

func main() {
	// The multiproc experiment re-execs this binary as its directory
	// server and flexnode daemon children; dispatch before flag parsing.
	experiment.MaybeChildMain()

	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	metrics := flag.String("metrics", "", "serve live monitoring over HTTP at host:port during the trace experiment (e.g. 127.0.0.1:8123)")
	perturb := flag.Bool("perturb", false, "inject a model perturbation into the replay experiment's second run (must be detected as a divergence)")
	flag.Parse()
	opts := experiment.Options{MetricsAddr: *metrics, Perturb: *perturb}

	if *list {
		for _, id := range experiment.IDs() {
			fmt.Printf("%-10s %s\n", id, experiment.Registry[id].Desc)
		}
		return
	}
	if *exp == "all" {
		if err := experiment.RunAll(os.Stdout, opts); err != nil {
			fmt.Fprintln(os.Stderr, "flexbench:", err)
			os.Exit(1)
		}
		return
	}
	driver, ok := experiment.Registry[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "flexbench: unknown experiment %q; known: %v\n", *exp, experiment.IDs())
		os.Exit(2)
	}
	fig, err := driver.Run(opts)
	if fig != nil {
		fig.Fprint(os.Stdout) //nolint:errcheck
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
}
