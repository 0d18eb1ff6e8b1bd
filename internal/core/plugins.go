package core

import (
	"fmt"
	"sync"
	"time"

	"flexio/internal/dcplugin"
	"flexio/internal/evpath"
)

// Data Conditioning plug-in deployment (Section II.F). Plug-ins are
// created on the reader side; besides running them locally on arriving
// events (ReaderGroup.InstallPlugin), the analytics can deploy them *into
// the simulation's address space* at runtime: the plug-in's source string
// travels over the coordinator connection — a channel separate from the
// ones used for data movement — is compiled on the writer side, and from
// then on conditions every outgoing event before it reaches a transport.
// A codelet can likewise be migrated between the two sides mid-run
// ("they can be migrated across address spaces at runtime").

const (
	msgDeployPlugin = "deploy-plugin"
	msgPluginAck    = "plugin-ack"
)

// writerPlugins is the writer group's installed-codelet table.
type writerPlugins struct {
	mu      sync.Mutex
	entries []writerPluginEntry
}

type writerPluginEntry struct {
	name string
	fn   evpath.FilterFunc
}

// install adds or replaces a named plug-in.
func (w *writerPlugins) install(name string, fn evpath.FilterFunc) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.entries {
		if w.entries[i].name == name {
			w.entries[i].fn = fn
			return
		}
	}
	w.entries = append(w.entries, writerPluginEntry{name: name, fn: fn})
}

// empty reports whether no codelet is installed — the data path checks
// it to skip the per-event dc.plugin stage when conditioning is off.
func (w *writerPlugins) empty() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.entries) == 0
}

// apply runs the chain over an event; nil means dropped.
func (w *writerPlugins) apply(ev *evpath.Event) (*evpath.Event, error) {
	w.mu.Lock()
	chain := make([]writerPluginEntry, len(w.entries))
	copy(chain, w.entries)
	w.mu.Unlock()
	for _, e := range chain {
		out, err := e.fn(ev)
		if err != nil {
			return nil, fmt.Errorf("core: writer plug-in %q: %w", e.name, err)
		}
		if out == nil {
			return nil, nil
		}
		ev = out
	}
	return ev, nil
}

// handlePluginControl processes a deploy request on the writer
// coordinator and returns the ack event to send back.
func (g *WriterGroup) handlePluginControl(ev *evpath.Event) *evpath.Event {
	name, _ := ev.Meta.GetString("name")
	src, _ := ev.Meta.GetString("source")
	ack := evpath.Record{"kind": msgPluginAck, "name": name, "ok": true}
	filter, err := dcplugin.Plugin{Name: name, Source: src}.Filter()
	if err != nil {
		ack["ok"] = false
		ack["error"] = err.Error()
		return &evpath.Event{Meta: ack}
	}
	g.plugins.install(name, filter)
	if g.mon != nil {
		g.mon.Incr("dc.writer.installed", 1)
	}
	return &evpath.Event{Meta: ack}
}

// --- Reader-side API ---

// DeployPluginToWriters compiles-at-destination: the plug-in's source is
// shipped to the writer side over the coordinator channel and installed
// there, so data is conditioned *before* it crosses the transport (e.g. a
// selection plug-in cuts the moved volume). Blocks until the writer side
// acknowledges (or rejects) the deployment.
func (g *ReaderGroup) DeployPluginToWriters(p dcplugin.Plugin) error {
	// Validate locally first for a fast, precise error.
	if _, err := dcplugin.Compile(p.Source); err != nil {
		return err
	}
	return g.pluginControl(evpath.Record{
		"kind": msgDeployPlugin, "name": p.Name, "source": p.Source,
	}, p.Name)
}

// MigratePluginToWriters moves a conditioning step from the reader's
// address space into the writers': it installs the codelet writer-side
// and removes the same-named local filter — the paper's runtime plug-in
// migration along the I/O path.
func (g *ReaderGroup) MigratePluginToWriters(p dcplugin.Plugin) error {
	if err := g.DeployPluginToWriters(p); err != nil {
		return err
	}
	g.removeLocalPlugin(p.Name)
	return nil
}

// pluginControl sends a control record and waits for the matching ack.
func (g *ReaderGroup) pluginControl(meta evpath.Record, name string) error {
	buf, err := evpath.EncodeEvent(&evpath.Event{Meta: meta})
	if err != nil {
		return err
	}
	ch := make(chan error, 1)
	g.mu.Lock()
	if g.pluginAcks == nil {
		g.pluginAcks = make(map[string]chan error)
	}
	g.pluginAcks[name] = ch
	g.mu.Unlock()
	if err := g.coordConn.Send(buf); err != nil {
		return err
	}
	select {
	case err := <-ch:
		return err
	case <-time.After(30 * time.Second):
		return fmt.Errorf("core: plug-in control %q timed out", name)
	}
}

// handlePluginAck resolves a pending control call (runs on coordPump).
func (g *ReaderGroup) handlePluginAck(ev *evpath.Event) {
	name, _ := ev.Meta.GetString("name")
	ok, _ := ev.Meta.GetBool("ok")
	g.mu.Lock()
	ch := g.pluginAcks[name]
	delete(g.pluginAcks, name)
	g.mu.Unlock()
	if ch == nil {
		return
	}
	if ok {
		ch <- nil
		return
	}
	msg, _ := ev.Meta.GetString("error")
	ch <- fmt.Errorf("core: writer rejected plug-in %q: %s", name, msg)
}

// removeLocalPlugin drops a reader-side filter by name.
func (g *ReaderGroup) removeLocalPlugin(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.plugins {
		if g.plugins[i].name == name {
			g.plugins = append(g.plugins[:i], g.plugins[i+1:]...)
			return
		}
	}
}
