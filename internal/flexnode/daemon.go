package flexnode

import (
	"crypto/tls"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/flight"
	"flexio/internal/monitor"
)

// State is a daemon lifecycle stage. Transitions are strictly forward:
//
//	Init -> Registering -> Serving -> Draining -> Deregistered
//
// Registering covers directory attachment, wire-transport startup and
// lease acquisition; Serving is the steady state in which ranks are
// hosted; Draining stops heartbeats and waits for hosted work to finish;
// Deregistered means the node's directory bindings are gone and the
// transport is closed.
type State int32

const (
	StateInit State = iota
	StateRegistering
	StateServing
	StateDraining
	StateDeregistered
)

func (s State) String() string {
	switch s {
	case StateInit:
		return "init"
	case StateRegistering:
		return "registering"
	case StateServing:
		return "serving"
	case StateDraining:
		return "draining"
	case StateDeregistered:
		return "deregistered"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Config describes one flexnode.
type Config struct {
	// Name identifies the node in the directory ("node!<Name>").
	Name string
	// Dir is the shared directory (a directory.Client against the
	// deployment's dirserver, or a Mem in single-process tests).
	Dir directory.Directory
	// Bind is the wire listen address; default "127.0.0.1:0".
	Bind string
	// TLS serves the wire transport over TLS with a fresh pinned
	// identity published to the directory.
	TLS bool
	// LeaseTTL is the node's directory lease; heartbeats renew it at
	// TTL/3. 0 disables leasing (bindings are permanent).
	LeaseTTL time.Duration
	// MetricsAddr optionally serves monitor endpoints (/metrics, /report,
	// ...) over HTTP; "127.0.0.1:0" picks a free port.
	MetricsAddr string
	// TCP overrides wire-transport tunables (zero fields keep defaults).
	TCP evpath.TCPConfig
}

// Daemon is a running flexnode.
type Daemon struct {
	Net *evpath.Net
	Mon *monitor.Monitor
	// Jrn is the daemon's flight recorder. Roles hosted on the daemon
	// attach it to their groups; the monitor server exposes it at
	// /journal and /critpath, which is how the fleet collector stitches
	// this process's events into cross-process critical paths.
	Jrn *flight.Journal

	cfg      Config
	contacts *Contacts
	identity *Identity
	adv      string
	state    atomic.Int32
	msrv     *monitor.Server
	maddr    string

	stopHeartbeat chan struct{}
	heartbeatDone sync.WaitGroup

	mu        sync.Mutex
	listeners []interface{ Close() } // hosted rank listeners, closed on drain
	roles     sync.WaitGroup         // hosted rank servers; Close waits for them
}

// Start brings a flexnode up: Init -> Registering (transport + directory
// + lease) -> Serving.
func Start(cfg Config) (*Daemon, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("flexnode: config needs a Name")
	}
	if cfg.Dir == nil {
		return nil, fmt.Errorf("flexnode: config needs a Dir")
	}
	if cfg.Bind == "" {
		cfg.Bind = "127.0.0.1:0"
	}
	d := &Daemon{
		Net:           evpath.NewNet(&cfg.TCP),
		Mon:           monitor.New(cfg.Name),
		Jrn:           flight.NewJournal(0),
		cfg:           cfg,
		stopHeartbeat: make(chan struct{}),
	}
	d.Mon.SetIdentity(cfg.Name, "")
	d.Jrn.SetIdentity(cfg.Name, "")
	if err := d.transition(StateInit, StateRegistering); err != nil {
		return nil, err
	}
	d.contacts = &Contacts{Dir: cfg.Dir, TTL: cfg.LeaseTTL}
	d.contacts.Bind(d.Net)

	var srvTLS *tls.Config
	if cfg.TLS {
		id, err := NewIdentity(cfg.Name)
		if err != nil {
			return nil, err
		}
		d.identity = id
		srvTLS = id.ServerTLS()
	}
	adv, err := d.Net.ServeTCP(cfg.Bind, srvTLS)
	if err != nil {
		return nil, err
	}
	d.adv = adv
	if d.identity != nil {
		if err := d.identity.Publish(cfg.Dir, adv, cfg.LeaseTTL); err != nil {
			d.Net.CloseTCP()
			return nil, err
		}
	}
	if err := registerMaybeTTL(cfg.Dir, NodeKey(cfg.Name), adv, cfg.LeaseTTL); err != nil {
		d.Net.CloseTCP()
		return nil, err
	}
	if cfg.LeaseTTL > 0 {
		d.heartbeatDone.Add(1)
		go d.heartbeat()
	}
	if cfg.MetricsAddr != "" {
		d.msrv = monitor.NewServer(func() monitor.Report {
			d.Net.ReportTCP(d.Mon, "tcp.")
			return d.Mon.Snapshot()
		})
		d.msrv.SetFlightSource(func() *flight.Journal { return d.Jrn })
		addr, err := d.msrv.Start(cfg.MetricsAddr)
		if err != nil {
			d.Net.CloseTCP()
			return nil, err
		}
		d.maddr = addr
		// Lease the scrape endpoint under obs! so the fleet collector's
		// directory listing always names exactly the live daemons.
		if err := registerMaybeTTL(cfg.Dir, ObsKey(cfg.Name), "http://"+addr, cfg.LeaseTTL); err != nil {
			d.msrv.Close() //nolint:errcheck
			d.Net.CloseTCP()
			return nil, err
		}
	}
	if err := d.transition(StateRegistering, StateServing); err != nil {
		d.Net.CloseTCP()
		return nil, err
	}
	return d, nil
}

// State reports the daemon's lifecycle stage.
func (d *Daemon) State() State { return State(d.state.Load()) }

func (d *Daemon) transition(from, to State) error {
	if !d.state.CompareAndSwap(int32(from), int32(to)) {
		return fmt.Errorf("flexnode %s: bad transition %s -> %s (now %s)",
			d.cfg.Name, from, to, d.State())
	}
	return nil
}

// Advertise reports the node's wire address ("tcp://..." or "tls://...").
func (d *Daemon) Advertise() string { return d.adv }

// MetricsAddr reports the monitor HTTP address ("" when not serving).
func (d *Daemon) MetricsAddr() string { return d.maddr }

// heartbeat renews the node lease, the published identity, and every
// published contact at a third of the TTL — fast enough that one missed
// beat never drops a live binding.
func (d *Daemon) heartbeat() {
	defer d.heartbeatDone.Done()
	lsr, ok := d.cfg.Dir.(directory.Leaser)
	if !ok {
		return
	}
	ttl := d.cfg.LeaseTTL
	tick := time.NewTicker(ttl / 3)
	defer tick.Stop()
	for {
		select {
		case <-d.stopHeartbeat:
			return
		case <-tick.C:
			lsr.Renew(NodeKey(d.cfg.Name), ttl) //nolint:errcheck // next beat retries
			if d.identity != nil {
				lsr.Renew(nsCert+d.adv, ttl) //nolint:errcheck
			}
			if d.maddr != "" {
				lsr.Renew(ObsKey(d.cfg.Name), ttl) //nolint:errcheck
			}
			d.contacts.RenewAll() //nolint:errcheck
			d.Mon.Incr("node.heartbeats", 1)
		}
	}
}

// trackRole registers hosted work that Close must wait for. done must be
// called exactly once when the role finishes; l (may be nil) is closed at
// drain time so a role stuck in Accept unblocks.
func (d *Daemon) trackRole(l interface{ Close() }) (done func()) {
	d.roles.Add(1)
	if l != nil {
		d.mu.Lock()
		d.listeners = append(d.listeners, l)
		d.mu.Unlock()
	}
	var once sync.Once
	return func() { once.Do(d.roles.Done) }
}

// Close drains and deregisters: Serving -> Draining (stop heartbeats,
// wait for hosted ranks) -> Deregistered (retract bindings, close the
// transport). Safe to call once; later calls are a no-op error.
func (d *Daemon) Close() error {
	if err := d.transition(StateServing, StateDraining); err != nil {
		return err
	}
	close(d.stopHeartbeat)
	d.heartbeatDone.Wait()
	d.mu.Lock()
	for _, l := range d.listeners {
		l.Close()
	}
	d.mu.Unlock()
	d.roles.Wait()

	d.cfg.Dir.Unregister(NodeKey(d.cfg.Name)) //nolint:errcheck
	if d.identity != nil {
		d.cfg.Dir.Unregister(nsCert + d.adv) //nolint:errcheck
	}
	if d.maddr != "" {
		d.cfg.Dir.Unregister(ObsKey(d.cfg.Name)) //nolint:errcheck
	}
	if d.msrv != nil {
		d.msrv.Close() //nolint:errcheck
	}
	d.Net.CloseTCP()
	return d.transition(StateDraining, StateDeregistered)
}
