package obsplane

import (
	"encoding/json"
	"net"
	"net/http"
	"time"
)

// Fleet HTTP surface — the collector's merged view, mirroring the
// per-daemon monitor.Server endpoints one level up:
//
//	/fleet/metrics   human-readable fleet-merged point table
//	/fleet/steps     JSON: per-daemon health + stitched step table
//	/fleet/critpath  JSON: per-scope stitched critical-path analyses
//	/fleet/slo       JSON: per-tenant SLO statuses
//
// Every handler materializes a complete snapshot under the collector
// lock and encodes from the copy, same contract as monitor.Server: a
// slow reader never stalls sweeps.

// monitorHTTP owns the collector's listener; split out so Close can
// tear it down without touching sweep state.
type monitorHTTP struct {
	srv *http.Server
	ln  net.Listener
}

func (h *monitorHTTP) close() error { return h.srv.Close() }

// Handler returns the /fleet/* mux for embedding or httptest.
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		c.Snapshot().Report.WriteTrace(w) //nolint:errcheck // client hang-up mid-write
	})
	mux.HandleFunc("/fleet/steps", func(w http.ResponseWriter, req *http.Request) {
		snap := c.Snapshot()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct { //nolint:errcheck
			Sweeps  int64          `json:"sweeps"`
			Daemons []DaemonStatus `json:"daemons"`
			Steps   []StitchedStep `json:"steps"`
		}{snap.Sweeps, snap.Daemons, snap.Steps})
	})
	mux.HandleFunc("/fleet/critpath", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.CritPaths()) //nolint:errcheck
	})
	mux.HandleFunc("/fleet/slo", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.SLOStatuses()) //nolint:errcheck
	})
	return mux
}

// Serve starts the fleet HTTP endpoints on addr ("127.0.0.1:0" picks a
// free port) and returns the bound address; Close tears it down.
func (c *Collector) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: c.Handler(), ReadHeaderTimeout: 5 * time.Second}
	c.mu.Lock()
	c.srv = &monitorHTTP{srv: srv, ln: ln}
	c.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	return ln.Addr().String(), nil
}
