package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Seed         int64             `json:"seed"`
	Runs         int               `json:"runs"`
	DurationS    float64           `json:"duration_s"`
	LayerS       float64           `json:"layer_run_s"`
	NProc        int               `json:"nproc"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	GoVersion    string            `json:"go_version"`
	CPUModel     string            `json:"cpu_model"`
	Date         string            `json:"date"`
	Network      string            `json:"network"`
	Writers      int               `json:"writer_ranks"`
	Readers      int               `json:"reader_ranks"`
	Workloads    []*workloadResult `json:"workloads"`
	OpsAttempted int64             `json:"ops_attempted"`
	OpsFailed    int64             `json:"ops_failed"`
}

type workloadResult struct {
	Name         string             `json:"name"`
	OpsAttempted int64              `json:"ops_attempted"`
	OpsFailed    int64              `json:"ops_failed"`
	EndToEnd     map[string]*series `json:"end_to_end"`
	PerLayer     map[string]reading `json:"per_layer,omitempty"`
	Samples      map[string]int     `json:"samples"`
}

// series is one end-to-end metric over the runs of a workload.
type series struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Values []float64 `json:"values"`
}

type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type suiteConfig struct {
	workloads      string
	seed           int64
	duration       time.Duration
	runs           int
	traced, probes bool
	out, traceOut  string
}

// layerRunFactor sizes the -trace 1 run from -duration: at the default
// 30 s it gives 9 s to each of its three runs and 1 s to each probe.
const layerRunFactor = 1.5

// runSuite measures every selected workload, each measurement in a child
// process of its own so that heap, GC pacing and peak RSS never carry
// over from one to the next, and so the numbers are the ones the
// single-workload mode reports. It reports whether no operation failed.
func runSuite(stdout, stderr io.Writer, cfg suiteConfig) (bool, error) {
	names := splitList(cfg.workloads)
	if len(names) == 0 {
		for _, sp := range specs {
			names = append(names, sp.name)
		}
	}
	for _, name := range names {
		if _, err := findSpec(name); err != nil {
			return false, err
		}
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	file := &resultsFile{
		Seed: cfg.seed, Runs: cfg.runs,
		DurationS: cfg.duration.Seconds(), LayerS: cfg.duration.Seconds() * layerRunFactor,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(), Date: time.Now().UTC().Format(time.RFC3339),
		Network: "host loopback (127.0.0.1) and shared memory in one process, never a link",
		Writers: nWriters, Readers: nReaders,
	}
	fmt.Fprintf(stdout, "# %s, nproc %d, GOMAXPROCS %d, %s; %s\n", file.CPUModel, file.NProc, file.GOMAXPROCS, file.GoVersion, file.Network)

	for _, name := range names {
		wr := &workloadResult{Name: name, EndToEnd: map[string]*series{}, Samples: map[string]int{}}
		file.Workloads = append(file.Workloads, wr)
		child := func(args ...string) (values, error) {
			args = append([]string{"-workload", name}, args...)
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			outBytes, err := cmd.Output()
			got, perr := parseChild(name, outBytes, wr)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
			}
			return got, perr
		}
		for i := 0; i < cfg.runs; i++ {
			got, err := child("-trace", "0", "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(cfg.duration.Seconds(), 'g', -1, 64))
			if err != nil {
				return false, err
			}
			for _, mt := range endToEnd {
				s := wr.EndToEnd[mt.name]
				if s == nil {
					s = &series{Unit: mt.unit, Better: mt.better, Bound: mt.bound}
					wr.EndToEnd[mt.name] = s
				}
				s.Values = append(s.Values, got[mt.name])
			}
		}
		for _, mt := range endToEnd {
			s := wr.EndToEnd[mt.name]
			s.Median = median(append([]float64(nil), s.Values...))
			fmt.Fprintln(stdout, name, mt.name, strconv.FormatFloat(s.Median, 'g', -1, 64), mt.unit)
		}
		if cfg.traced || cfg.probes {
			args := []string{"-trace", "1", "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.duration.Seconds()*layerRunFactor, 'g', -1, 64),
				"-traced=" + strconv.FormatBool(cfg.traced), "-probes=" + strconv.FormatBool(cfg.probes)}
			if cfg.traceOut != "" {
				path := cfg.traceOut
				if len(names) > 1 {
					path += "." + name
				}
				args = append(args, "-trace-out", path)
			}
			got, err := child(args...)
			if err != nil {
				return false, err
			}
			wr.PerLayer = map[string]reading{}
			for _, mt := range perLayer {
				if v, ok := got[mt.name]; ok {
					wr.PerLayer[mt.name] = reading{v, mt.unit}
					fmt.Fprintln(stdout, name, mt.name, strconv.FormatFloat(v, 'g', -1, 64), mt.unit)
				}
			}
		}
		fmt.Fprintln(stdout, name, "ops_attempted", wr.OpsAttempted, "count")
		fmt.Fprintln(stdout, name, "ops_failed", wr.OpsFailed, "count")
		file.OpsAttempted += wr.OpsAttempted
		file.OpsFailed += wr.OpsFailed
	}

	if cfg.out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return file.OpsFailed == 0, nil
}

// parseChild reads a single-workload run's output: the metric lines into
// the returned values, sample counts and operation counts into wr.
func parseChild(name string, out []byte, wr *workloadResult) (values, error) {
	got := values{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 || f[0] != name {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad metric line %q", name, sc.Text())
		}
		switch {
		case f[1] == "ops_attempted":
			wr.OpsAttempted += int64(v)
		case f[1] == "ops_failed":
			wr.OpsFailed += int64(v)
		case strings.HasPrefix(f[1], "samples."):
			wr.Samples[f[1]] += int(v)
		default:
			got[f[1]] = v
		}
	}
	return got, sc.Err()
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
