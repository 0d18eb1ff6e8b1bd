// Command obscollector runs FlexIO's fleet observability collector as a
// standalone service: it discovers live flexnode daemons through the
// deployment's directory server (their leased obs! registrations),
// scrapes each one's monitor endpoints on a jittered interval, and
// serves the merged fleet view — cross-process stitched step traces,
// fleet histograms, stitched critical paths and per-tenant SLO burn
// rates — under /fleet/*.
//
//	obscollector -dir 127.0.0.1:7878 -listen 127.0.0.1:9090 \
//	    -interval 250ms -slo acme:5:0.1 -slo batch:50:0.25
//
// Each -slo is tenant:target_ms:budget — tenant, per-step latency
// objective in milliseconds, and the tolerated violation fraction.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flexio/internal/directory"
	"flexio/internal/obsplane"
)

// sloFlags accumulates repeated -slo tenant:target_ms:budget values.
type sloFlags []obsplane.SLO

func (s *sloFlags) String() string { return fmt.Sprintf("%d objectives", len(*s)) }

func (s *sloFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) != 3 {
		return fmt.Errorf("want tenant:target_ms:budget, got %q", v)
	}
	ms, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || ms <= 0 {
		return fmt.Errorf("bad target_ms in %q", v)
	}
	budget, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || budget <= 0 || budget > 1 {
		return fmt.Errorf("bad budget in %q (want a fraction in (0,1])", v)
	}
	*s = append(*s, obsplane.SLO{
		Tenant: parts[0],
		Target: time.Duration(ms * float64(time.Millisecond)),
		Budget: budget,
	})
	return nil
}

func main() {
	dirAddr := flag.String("dir", "127.0.0.1:7878", "directory server address")
	listen := flag.String("listen", "127.0.0.1:9090", "fleet HTTP listen address")
	interval := flag.Duration("interval", 250*time.Millisecond, "scrape sweep interval (jittered)")
	timeout := flag.Duration("timeout", 2*time.Second, "per-daemon scrape timeout")
	var slos sloFlags
	flag.Var(&slos, "slo", "per-tenant objective tenant:target_ms:budget (repeatable)")
	flag.Parse()

	c := obsplane.New(&directory.Client{Addr: *dirAddr}, obsplane.Options{
		Interval: *interval,
		Timeout:  *timeout,
		SLOs:     slos,
		OnBreach: func(s obsplane.SLOStatus) {
			fmt.Printf("SLO BREACH tenant=%s burn=%.2f violations=%d/%d worst=%.3fs (episode %d)\n",
				s.Tenant, s.BurnRate, s.Violations, s.Steps, s.WorstLatency, s.Episodes)
		},
	})
	addr, err := c.Serve(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obscollector:", err)
		os.Exit(1)
	}
	c.Start()
	fmt.Printf("flexio fleet collector on http://%s (directory %s, %d SLOs)\n", addr, *dirAddr, len(slos))
	fmt.Println("endpoints: /fleet/metrics /fleet/steps /fleet/critpath /fleet/slo")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	c.Close() //nolint:errcheck
}
