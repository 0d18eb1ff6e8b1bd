package experiment

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/flexnode"
)

// Multiproc is the real-deployment drill: the only experiment that
// leaves the parent address space. It re-executes the current binary as
// one directory server plus four flexnode daemons (writer leader +
// worker, reader leader + worker), couples them exclusively over
// TCP+TLS sockets and the wire directory protocol, injects a mid-run
// disconnect on the writer leader, reconfigures the reader decomposition
// mid-stream, ships a DC plug-in across processes — and then proves the
// whole deployment moved exactly the same bytes as a single-process
// shared-memory run by comparing per-rank FNV digests against both the
// in-process reference and the scenario's closed form.
//
// Child processes are spawned by re-exec: MaybeChildMain, called at the
// top of cmd/flexbench's main (and of the experiment package's
// TestMain), dispatches on FLEXIO_MP_ROLE before any flag parsing.

// Environment keys for child-process configuration.
const (
	mpRoleEnv   = "FLEXIO_MP_ROLE"
	mpDirEnv    = "FLEXIO_MP_DIR"
	mpNameEnv   = "FLEXIO_MP_NAME"
	mpStreamEnv = "FLEXIO_MP_STREAM"
	mpMEnv      = "FLEXIO_MP_M"
	mpNEnv      = "FLEXIO_MP_N"
	mpStepsEnv  = "FLEXIO_MP_STEPS"
	mpReconfEnv = "FLEXIO_MP_RECONFIG_AFTER"
	mpRanksEnv  = "FLEXIO_MP_RANKS"
	mpDropEnv   = "FLEXIO_MP_DROP_AFTER"
	mpPluginEnv = "FLEXIO_MP_PLUGIN"
	mpLeaseEnv  = "FLEXIO_MP_LEASE_MS"
)

// MaybeChildMain turns the current process into a multiproc child when
// FLEXIO_MP_ROLE is set, and never returns in that case. Binaries that
// the multiproc experiment may re-exec (cmd/flexbench, the experiment
// test binary) must call it first thing in main.
func MaybeChildMain() {
	role := os.Getenv(mpRoleEnv)
	if role == "" {
		return
	}
	if err := runChild(role); err != nil {
		fmt.Fprintf(os.Stderr, "flexio multiproc %s: %v\n", role, err)
		os.Exit(1)
	}
	os.Exit(0)
}

func runChild(role string) error {
	if role == "dirserver" {
		srv, err := directory.Serve("127.0.0.1:0", directory.NewMem())
		if err != nil {
			return err
		}
		// The ADDR line is the handshake the parent blocks on.
		fmt.Printf("ADDR %s\n", srv.Addr())
		select {} // parent kills us when the run is over
	}
	cfg, err := roleConfigFromEnv()
	if err != nil {
		return err
	}
	switch role {
	case "writer-leader":
		return flexnode.RunWriterLeader(cfg)
	case "writer-worker":
		return flexnode.RunWriterWorker(cfg)
	case "reader-leader":
		return flexnode.RunReaderLeader(cfg)
	case "reader-worker":
		return flexnode.RunReaderWorker(cfg)
	default:
		return fmt.Errorf("unknown role %q", role)
	}
}

func envInt(key string, def int) (int, error) {
	v := os.Getenv(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%s=%q: %w", key, v, err)
	}
	return n, nil
}

func roleConfigFromEnv() (flexnode.RoleConfig, error) {
	var cfg flexnode.RoleConfig
	dirAddr := os.Getenv(mpDirEnv)
	if dirAddr == "" {
		return cfg, fmt.Errorf("%s not set", mpDirEnv)
	}
	var ranks []int
	for _, f := range strings.Split(os.Getenv(mpRanksEnv), ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		r, err := strconv.Atoi(f)
		if err != nil {
			return cfg, fmt.Errorf("%s: %w", mpRanksEnv, err)
		}
		ranks = append(ranks, r)
	}
	m, err := envInt(mpMEnv, 2)
	if err != nil {
		return cfg, err
	}
	n, err := envInt(mpNEnv, 2)
	if err != nil {
		return cfg, err
	}
	steps, err := envInt(mpStepsEnv, 6)
	if err != nil {
		return cfg, err
	}
	reconf, err := envInt(mpReconfEnv, -1)
	if err != nil {
		return cfg, err
	}
	drop, err := envInt(mpDropEnv, 0)
	if err != nil {
		return cfg, err
	}
	leaseMS, err := envInt(mpLeaseEnv, 0)
	if err != nil {
		return cfg, err
	}
	cfg = flexnode.RoleConfig{
		Node: flexnode.Config{
			Name:     os.Getenv(mpNameEnv),
			Dir:      &directory.Client{Addr: dirAddr},
			TLS:      true,
			LeaseTTL: time.Duration(leaseMS) * time.Millisecond,
		},
		Scenario: flexnode.Scenario{
			Stream:        os.Getenv(mpStreamEnv),
			M:             m,
			N:             n,
			Steps:         steps,
			ReconfigAfter: reconf,
		},
		Ranks:  ranks,
		Faults: evpath.TCPFaults{DropAfterSends: drop},
		Plugin: os.Getenv(mpPluginEnv),
	}
	return cfg, nil
}

// multiprocTimeout bounds the whole deployment; a wedged child must not
// hang `make ci`. A child still running at the deadline gets SIGQUIT, so
// the Go runtime prints its goroutine dump, and is killed if it has not
// exited dumpGrace later.
const (
	multiprocTimeout = 90 * time.Second
	dumpGrace        = 5 * time.Second
)

type mpChild struct {
	name string
	cmd  *exec.Cmd
	out  bytes.Buffer
	done chan error
}

func spawnChild(ctx context.Context, exe, name string, env []string) *mpChild {
	c := &mpChild{name: name, done: make(chan error, 1)}
	c.cmd = exec.CommandContext(ctx, exe)
	c.cmd.Env = append(os.Environ(), env...)
	c.cmd.Stdout = &c.out
	c.cmd.Stderr = &c.out
	c.cmd.Cancel = func() error { return c.cmd.Process.Signal(syscall.SIGQUIT) }
	c.cmd.WaitDelay = dumpGrace
	if err := c.cmd.Start(); err != nil {
		c.done <- err
		return c
	}
	go func() { c.done <- c.cmd.Wait() }()
	return c
}

// Multiproc runs the multi-process deployment experiment.
func Multiproc() (*Figure, error) {
	sc := flexnode.Scenario{
		Stream:        "multiproc",
		M:             2,
		N:             2,
		Steps:         6,
		ReconfigAfter: 2,
	}

	// Reference: the same scenario in one process over shared memory.
	ref, err := sc.RunLocal(evpath.ShmTransport)
	if err != nil {
		return nil, fmt.Errorf("multiproc: in-process shm reference: %w", err)
	}

	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), multiprocTimeout)
	defer cancel()

	// Directory server child: wait for its ADDR handshake line.
	ds := exec.CommandContext(ctx, exe)
	ds.Env = append(os.Environ(), mpRoleEnv+"=dirserver")
	dsOut, err := ds.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var dsErr bytes.Buffer
	ds.Stderr = &dsErr
	if err := ds.Start(); err != nil {
		return nil, fmt.Errorf("multiproc: start dirserver: %w", err)
	}
	defer func() {
		ds.Process.Kill() //nolint:errcheck
		ds.Wait()         //nolint:errcheck
	}()
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(dsOut)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
				addrCh <- a
				return
			}
		}
		addrCh <- ""
	}()
	var dirAddr string
	select {
	case dirAddr = <-addrCh:
	case <-ctx.Done():
	}
	if dirAddr == "" {
		ds.Wait() //nolint:errcheck // only so that dsErr is complete
		return nil, fmt.Errorf("multiproc: dirserver gave no ADDR (exited or timed out): %s", dsErr.String())
	}

	base := []string{
		mpDirEnv + "=" + dirAddr,
		mpStreamEnv + "=" + sc.Stream,
		mpMEnv + "=" + strconv.Itoa(sc.M),
		mpNEnv + "=" + strconv.Itoa(sc.N),
		mpStepsEnv + "=" + strconv.Itoa(sc.Steps),
		mpReconfEnv + "=" + strconv.Itoa(sc.ReconfigAfter),
		mpLeaseEnv + "=2000",
	}
	node := func(role, name, ranks string, extra ...string) *mpChild {
		env := append(append([]string{}, base...),
			mpRoleEnv+"="+role, mpNameEnv+"="+name, mpRanksEnv+"="+ranks)
		env = append(env, extra...)
		return spawnChild(ctx, exe, name, env)
	}
	children := []*mpChild{
		node("writer-leader", "wl", "0", mpDropEnv+"=9"),
		node("writer-worker", "ww", "1"),
		node("reader-leader", "rl", "0", mpPluginEnv+`=setstr("deployed-by","flexnode");`),
		node("reader-worker", "rw", "1"),
	}
	for i, c := range children {
		select {
		case err := <-c.done:
			if err != nil {
				return nil, fmt.Errorf("multiproc: %s: %w\n%s", c.name, err, c.out.String())
			}
		case <-ctx.Done():
			// Each child's output is complete, dump included, only once
			// its Wait has returned.
			msg := "multiproc: " + c.name + " timed out"
			for _, c := range children[i:] {
				<-c.done
				msg += fmt.Sprintf("\n--- %s\n%s", c.name, c.out.String())
			}
			return nil, errors.New(msg)
		}
	}

	// Harvest results through the same wire directory the daemons used.
	cl := &directory.Client{Addr: dirAddr}
	notes := []string{
		fmt.Sprintf("processes: 1 dirserver + 4 flexnode daemons (M=%d writers, N=%d readers), all traffic tcp+tls", sc.M, sc.N),
	}
	identical := true
	for r := 0; r < sc.N; r++ {
		want, err := sc.ExpectedHash(r)
		if err != nil {
			return nil, err
		}
		got, err := cl.Lookup(flexnode.HashKey(sc.Stream, r))
		if err != nil {
			return nil, fmt.Errorf("multiproc: rank %d digest not published: %w", r, err)
		}
		if got != want || got != ref[r] {
			identical = false
			notes = append(notes, fmt.Sprintf("rank %d DIVERGED: multiproc=%s shm=%s closed-form=%s", r, got, ref[r], want))
		} else {
			notes = append(notes, fmt.Sprintf("rank %d digest %s == shm reference == closed form", r, got))
		}
	}
	if !identical {
		return nil, fmt.Errorf("multiproc: output diverged from single-process run:\n  %s", strings.Join(notes, "\n  "))
	}
	stats, err := cl.Lookup(flexnode.StatsKey(sc.Stream))
	if err != nil {
		return nil, fmt.Errorf("multiproc: writer-leader stats not published: %w", err)
	}
	notes = append(notes, "writer-leader wire counters: "+stats)
	if !strings.Contains(stats, "drops=1") {
		return nil, fmt.Errorf("multiproc: expected exactly one injected drop, got %q", stats)
	}
	if strings.Contains(stats, "redials=0,") {
		return nil, fmt.Errorf("multiproc: disconnect was not survived by redial: %q", stats)
	}
	epoch, err := cl.Lookup(flexnode.EpochKey(sc.Stream))
	if err != nil {
		return nil, fmt.Errorf("multiproc: session epoch not published: %w", err)
	}
	if epoch != "2" {
		return nil, fmt.Errorf("multiproc: final session epoch = %s, want 2 (one mid-run reconfigure)", epoch)
	}
	notes = append(notes,
		fmt.Sprintf("mid-run Reconfigure after step %d completed across processes (final epoch %s)", sc.ReconfigAfter, epoch),
		"injected disconnect after 9 sends survived via redial+resume; DC plug-in shipped writer-side over the control connection",
		"output byte-identical to single-process shm run")
	return &Figure{
		ID:    "multiproc",
		Title: "Multi-process deployment: dirserver + flexnode daemons over TCP/TLS",
		Notes: notes,
	}, nil
}
