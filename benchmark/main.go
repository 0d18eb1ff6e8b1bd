// Command flexio-bench measures the real FlexIO data plane — core writer
// and reader groups over the evpath shm and tcp transports — end to end
// and layer by layer. See README.md.
//
// Three ways to run it:
//
//	flexio-bench -workload W -seed N -seconds S -trace 0|1
//	    one measurement of one workload (what BENCHMARK.json's command
//	    runs): metric lines, then one JSON object on the last line.
//	flexio-bench [-workloads a,b] [-duration 30s] [-runs 1] -out results.json
//	    every workload, each measurement in a process of its own.
//	flexio-bench -compare A.json B.json
//	    hold two result files against the end-to-end bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flexio-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "measure this one workload and print the result object (see -seconds, -trace)")
		secs      = fs.Float64("seconds", 20, "with -workload: seconds to measure for")
		trace     = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		seed      = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		workloads = fs.String("workloads", "", "comma-separated workloads to run (default all)")
		duration  = fs.Duration("duration", 30*time.Second, "timed window of each end-to-end run")
		runs      = fs.Int("runs", 1, "end-to-end runs per workload, on seeds seed..seed+runs-1")
		traced    = fs.Bool("traced", true, "run the traced and the instrumented run")
		probes    = fs.Bool("probes", true, "run the layer probes")
		out       = fs.String("out", "", "write the results as JSON to this file")
		traceOut  = fs.String("trace-out", "", "write the traced run's spans to this file (to <file>.<workload> when several run)")
		compare   = fs.Bool("compare", false, "compare two result files given as arguments; exit 1 if a metric regressed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: flexio-bench -compare A.json B.json")
			return 2
		}
		var regressed bool
		if regressed, err = compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err == nil && regressed {
			return 1
		}
	case *workload != "":
		var ok bool
		opt := layerOptions{traced: *traced, probes: *probes, traceOut: *traceOut}
		if ok, err = measureOne(stdout, *workload, *seed, time.Duration(*secs*float64(time.Second)), *trace != 0, opt); err == nil && !ok {
			return 1
		}
	default:
		var ok bool
		cfg := suiteConfig{
			workloads: *workloads, seed: *seed, duration: *duration, runs: *runs,
			traced: *traced, probes: *probes, out: *out, traceOut: *traceOut,
		}
		if ok, err = runSuite(stdout, stderr, cfg); err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "flexio-bench:", err)
		return 1
	}
	return 0
}

// measureOne runs one measurement in this process and prints it: one
// "workload metric value unit" line per metric and sample count, then the
// result object. It reports whether every operation was correct.
func measureOne(stdout io.Writer, name string, seed int64, d time.Duration, layers bool, opt layerOptions) (bool, error) {
	sp, err := findSpec(name)
	if err != nil {
		return false, err
	}
	in, err := generate(sp, seed)
	if err != nil {
		return false, err
	}
	var m *measurement
	table := endToEnd
	if layers {
		table = perLayer
		m, err = measureLayers(in, d, opt)
	} else {
		m, err = measureEndToEnd(in, d)
	}
	if err != nil {
		return false, err
	}

	result := struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{m.failed == 0, m.attempted, m.failed, map[string]reading{}}
	for _, mt := range table {
		v, ok := m.metrics[mt.name]
		if !ok {
			continue // a part of the -trace 1 run that was switched off
		}
		result.Metrics[mt.name] = reading{v, mt.unit}
		fmt.Fprintln(stdout, name, mt.name, strconv.FormatFloat(v, 'g', -1, 64), mt.unit)
	}
	for _, k := range sortedKeys(m.samples) {
		fmt.Fprintln(stdout, name, k, m.samples[k], "count")
	}
	fmt.Fprintln(stdout, name, "ops_attempted", m.attempted, "count")
	fmt.Fprintln(stdout, name, "ops_failed", m.failed, "count")
	if m.failure != nil {
		fmt.Fprintln(stdout, "#", name, "first failed operation:", m.failure)
	}
	fmt.Fprintln(stdout, "# all traffic crossed the host loopback or shared memory, never a link")
	line, err := json.Marshal(result)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, string(line))
	return m.failed == 0, nil
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
