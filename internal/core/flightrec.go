package core

import (
	"flexio/internal/flight"
	"flexio/internal/monitor"
	"flexio/internal/shm"
)

// Flight-recorder attachment for the real data plane. Every data-path
// stage — writer.flush → writer.pack → dc.plugin → send.<transport> →
// reader.accept → dc.plugin → reader.assemble — is one journal stage
// (flight.Journal.Begin) with explicit causal parents on the writer
// side, so critical-path analysis works on live streams too. The same
// call folds the stage's duration into the group monitor's histogram of
// that point, so monitor-only groups keep their per-point latencies and
// groups with neither sink pay one branch per stage. Core streams are
// multi-goroutine: their journals feed critpath and trace export, but
// (unlike the virtual-time coupled model) their event order is not
// replay-deterministic, so replay hashing only covers the simulated runs.

// observer hands a group's monitor to its journal stages as their
// duration observer. A nil monitor must stay a nil interface, or a group
// with no sink attached would time stages nobody records.
func observer(mon *monitor.Monitor) flight.Observer {
	if mon == nil {
		return nil
	}
	return mon
}

// SetJournal attaches a flight recorder to the writer group. Call it
// before the first EndStep; the data plane reads the field without a
// lock on the flush path.
func (g *WriterGroup) SetJournal(j *flight.Journal) { g.journal = j }

// SetJournal attaches a flight recorder to the reader group. Call it
// before reading begins.
func (g *ReaderGroup) SetJournal(j *flight.Journal) { g.journal = j }

// AsmPoolStats exposes the assembly-buffer pool counters: after the
// application returns every ReadArray buffer via ReleaseArray,
// BytesInUse drains to zero while HighWater keeps the peak.
func (g *ReaderGroup) AsmPoolStats() shm.PoolStats { return g.asmPool.Stats() }

// PayloadPoolStats exposes the writer-side payload pool counters.
func (g *WriterGroup) PayloadPoolStats() shm.PoolStats { return g.payloadPool.Stats() }
