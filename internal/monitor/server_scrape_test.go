package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"flexio/internal/flight"
)

// TestServerConcurrentScrape hammers the snapshot endpoints from several
// HTTP clients while writer goroutines journal stages (each folding into
// the monitor) and observe timings as fast as they can. Run under -race
// (make ci does) this proves the endpoints serve from copied snapshots:
// no lock is held across JSON encoding, no scrape tears a live map or the
// journal ring, and every response is complete and decodable — reports
// keep their identity, journal dumps a window consistent with their Seen
// cursor. The journal is small so the ring wraps constantly and every
// /journal and /trace response stays cheap to encode.
func TestServerConcurrentScrape(t *testing.T) {
	m := New("scrape")
	m.SetIdentity("scrape-daemon", "testnode")
	j := flight.NewJournal(64)
	j.SetIdentity("scrape-daemon", "testnode")
	srv := NewServer(func() Report { return m.Snapshot() })
	srv.SetFlightSource(func() *flight.Journal { return j })
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close() //nolint:errcheck

	var stop atomic.Bool
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			for step := int64(0); !stop.Load(); step++ {
				st := j.Begin(m, flight.Event{
					Kind: flight.KindCompute, Point: "writer.pack", Scope: "t/gts",
					Rank: w, Step: step, Epoch: 1,
				})
				m.Observe("writer.flush", 0.0001)
				m.AddVolume("data.bytes", 64)
				m.Set("session.epoch", 1)
				st.End()
			}
		}()
	}

	var scrapers sync.WaitGroup
	errCh := make(chan error, 64)
	for c := 0; c < 3; c++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 50; i++ {
				for _, ep := range []string{"/report", "/metrics", "/journal", "/trace"} {
					resp, err := http.Get("http://" + addr + ep)
					if err != nil {
						errCh <- fmt.Errorf("GET %s: %w", ep, err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close() //nolint:errcheck
					if err != nil {
						errCh <- fmt.Errorf("read %s: %w", ep, err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						errCh <- fmt.Errorf("%s: status %d", ep, resp.StatusCode)
						return
					}
					switch ep {
					case "/report":
						var rep Report
						if err := json.Unmarshal(body, &rep); err != nil {
							errCh <- fmt.Errorf("decode %s: %w", ep, err)
							return
						}
						if rep.Daemon != "scrape-daemon" || rep.PID == 0 {
							errCh <- fmt.Errorf("%s: identity missing: daemon=%q pid=%d", ep, rep.Daemon, rep.PID)
							return
						}
					case "/journal":
						var dump flight.JournalDump
						if err := json.Unmarshal(body, &dump); err != nil {
							errCh <- fmt.Errorf("decode %s: %w", ep, err)
							return
						}
						// Window consistency: the buffered events cover ring
						// positions [Seen-len, Seen), so Seen bounds the window
						// and the drop count, and every event is complete.
						if int64(len(dump.Events))+dump.Dropped != dump.Seen || dump.Daemon != "scrape-daemon" {
							errCh <- fmt.Errorf("%s: dropped %d + buffered %d != seen %d (daemon %q)",
								ep, dump.Dropped, len(dump.Events), dump.Seen, dump.Daemon)
							return
						}
						for _, ev := range dump.Events {
							if ev.ID == 0 || ev.Point != "writer.pack" {
								errCh <- fmt.Errorf("%s: incomplete event %+v", ep, ev)
								return
							}
						}
					}
				}
			}
		}()
	}
	scrapers.Wait()
	stop.Store(true)
	writers.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
