package monitor

import (
	"net"
	"net/http"
	"sync"
	"time"

	"flexio/internal/flight"
)

// Server exposes a live monitoring source over HTTP so a running
// experiment can be watched mid-flight (including mid-reconfiguration):
//
//	/metrics   human-readable point table with P50/P95/P99 per timing
//	/report    the full machine-readable report
//	/journal   flight-recorder event journal as JSON (with stream hash)
//	/trace     Chrome trace-event JSON of the journal
//	/critpath  per-step critical-path analysis of the journal as JSON
//
// The source callback is invoked per request, so every response is a
// fresh snapshot; typical sources Merge the live writer- and reader-side
// monitors. /journal, /trace and /critpath respond 404 until
// SetFlightSource attaches a flight recorder.
//
// Concurrency contract: every handler materializes a complete copied
// snapshot (Snapshot/Dump hold the monitor or journal lock only while
// copying) and encodes from that copy, so no lock is ever held across
// JSON encoding or a slow client write — a scraper hammering /journal
// during a live run stalls neither the data path nor other requests.
// /journal carries the dump's monotonic Seen cursor and Dropped count,
// so sweeping scrapers can window the ring without double-counting (see
// flight.JournalDump).
type Server struct {
	src func() Report

	mu     sync.Mutex
	flight func() *flight.Journal
	srv    *http.Server
	ln     net.Listener
}

// NewServer wraps a report source (never nil).
func NewServer(src func() Report) *Server {
	return &Server{src: src}
}

// SetFlightSource attaches a flight-recorder source serving /journal,
// /trace and /critpath. Like the report source it is invoked per
// request; a nil source (or a source returning nil) detaches the
// endpoints.
func (s *Server) SetFlightSource(src func() *flight.Journal) {
	s.mu.Lock()
	s.flight = src
	s.mu.Unlock()
}

func (s *Server) flightJournal() (*flight.Journal, bool) {
	s.mu.Lock()
	src := s.flight
	s.mu.Unlock()
	if src == nil {
		return nil, false
	}
	j := src()
	return j, j != nil
}

// Handler returns the endpoint mux, for embedding into an existing
// server or httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.src().WriteTrace(w) //nolint:errcheck // client hang-up mid-write
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.src().WriteJSON(w) //nolint:errcheck
	})
	mux.HandleFunc("/journal", func(w http.ResponseWriter, req *http.Request) {
		j, ok := s.flightJournal()
		if !ok {
			http.Error(w, "no flight recorder attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		flight.WriteJSON(w, j) //nolint:errcheck
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		j, ok := s.flightJournal()
		if !ok {
			http.Error(w, "no flight recorder attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		flight.WriteChromeTrace(w, j.Snapshot()) //nolint:errcheck
	})
	mux.HandleFunc("/critpath", func(w http.ResponseWriter, req *http.Request) {
		j, ok := s.flightJournal()
		if !ok {
			http.Error(w, "no flight recorder attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		flight.WriteAnalysisJSON(w, flight.Analyze(j.Snapshot())) //nolint:errcheck
	})
	return mux
}

// Start begins serving on addr ("127.0.0.1:0" picks a free port) and
// returns the bound address. The server runs until Close.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	s.mu.Lock()
	s.ln = ln
	s.srv = srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server and releases the listener.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}
