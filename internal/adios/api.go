package adios

import (
	"fmt"
	"sync"

	"flexio/internal/core"
	"flexio/internal/dcplugin"
	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/monitor"
	"flexio/internal/ndarray"
)

// Context is the process-wide ADIOS/FlexIO environment: the connection
// manager, the directory service, and the root path used by file-mode
// engines. One Context is shared by all ranks in this process.
type Context struct {
	Net     *evpath.Net
	Dir     directory.Directory
	FSRoot  string // directory for file-mode output (the "parallel FS")
	Monitor *monitor.Monitor

	mu     sync.Mutex
	config *Config
	opens  *openState
}

// NewContext builds a context. cfg may be nil (every IO defaults to the
// stream engine with default options).
func NewContext(net *evpath.Net, dir directory.Directory, fsRoot string, cfg *Config) *Context {
	return &Context{Net: net, Dir: dir, FSRoot: fsRoot, config: cfg, opens: newOpenState()}
}

// DeclareIO resolves an IO group by name against the configuration; an
// unconfigured name gets the stream engine with defaults (matching ADIOS's
// behaviour for unlisted groups).
func (c *Context) DeclareIO(name string) (*IO, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ioc *IOConfig
	if c.config != nil {
		ioc = c.config.IOs[name]
	}
	if ioc == nil {
		ioc = &IOConfig{Name: name, Engine: "stream", Params: map[string]string{}}
	}
	opts, err := ioc.coreOptions()
	if err != nil {
		return nil, err
	}
	return &IO{ctx: c, cfg: ioc, opts: opts}, nil
}

// IO is a named I/O group bound to an engine choice.
type IO struct {
	ctx  *Context
	cfg  *IOConfig
	opts core.Options
}

// Engine reports the configured engine ("stream" or "file").
func (io *IO) Engine() string { return io.cfg.Engine }

// SetTransport overrides the placement-to-transport mapping (stream
// engine only); this is the hook FlexIO's placement machinery uses to
// enforce a chosen placement.
func (io *IO) SetTransport(fn func(w, r int) (evpath.TransportKind, int, int)) {
	io.opts.Transport = fn
}

// writerEngine and readerEngine are the per-rank engine contracts; both
// the stream engine (FlexIO runtime) and the file engine implement them,
// which is what makes placement (online vs. offline) switchable without
// application change.
type writerEngine interface {
	BeginStep(step int64) error
	Write(meta core.VarMeta, data []byte) error
	EndStep() error
	Close() error
}

type readerEngine interface {
	SelectArray(name string, box ndarray.Box) error
	SelectProcessGroups(writers []int) error
	BeginStep() (int64, bool)
	ReadArray(name string) ([]byte, ndarray.Box, error)
	// ReadScalar and ReadProcessGroups return bytes valid until EndStep.
	ReadScalar(name string) ([]byte, error)
	ReadProcessGroups(name string) (map[int][]byte, error)
	EndStep() error
	Close() error
}

// Writer is one rank's write handle on an open stream/file.
type Writer struct {
	eng  writerEngine
	Rank int
}

// Reader is one rank's read handle.
type Reader struct {
	eng  readerEngine
	Rank int
}

// openState tracks the per-stream shared group between ranks of one
// program, so OpenWriter can be called once per rank. Group construction
// can block (a reader group waits for the stream's registration), so
// entries are once-guarded futures: the map lock is never held across a
// blocking constructor.
type openState struct {
	mu      sync.Mutex
	wgroups map[string]*wEntry
	rgroups map[string]*rEntry
	fwriter map[string]*fileWriterGroup
	freader map[string]*fileReaderGroup
}

type wEntry struct {
	once   sync.Once
	g      *core.WriterGroup
	err    error
	mu     sync.Mutex
	closes int
}

type rEntry struct {
	once   sync.Once
	g      *core.ReaderGroup
	err    error
	mu     sync.Mutex
	closes int
}

func newOpenState() *openState {
	return &openState{
		wgroups: make(map[string]*wEntry),
		rgroups: make(map[string]*rEntry),
		fwriter: make(map[string]*fileWriterGroup),
		freader: make(map[string]*fileReaderGroup),
	}
}

// OpenWriter opens (or joins) the writer side of a stream for one rank.
// All ranks of the program must call it with identical arguments.
func (io *IO) OpenWriter(stream string, rank, nRanks int) (*Writer, error) {
	key := io.ctx.FSRoot + "|" + stream
	switch io.cfg.Engine {
	case "stream":
		opens := io.ctx.opens
		opens.mu.Lock()
		e, ok := opens.wgroups[key]
		if !ok {
			e = &wEntry{}
			opens.wgroups[key] = e
		}
		opens.mu.Unlock()
		e.once.Do(func() {
			e.g, e.err = core.NewWriterGroup(io.ctx.Net, io.ctx.Dir, stream, nRanks, io.opts, io.ctx.Monitor)
		})
		if e.err != nil {
			return nil, e.err
		}
		g := e.g
		if g.NWriters != nRanks {
			return nil, fmt.Errorf("adios: stream %q opened with %d ranks, rank %d says %d",
				stream, g.NWriters, rank, nRanks)
		}
		return &Writer{eng: &streamWriter{g: g, w: g.Writer(rank), stream: stream, key: key, opens: opens, entry: e}, Rank: rank}, nil
	case "file":
		opens := io.ctx.opens
		opens.mu.Lock()
		g, ok := opens.fwriter[key]
		if !ok {
			var err error
			g, err = newFileWriterGroup(io.ctx.FSRoot, stream, nRanks)
			if err != nil {
				opens.mu.Unlock()
				return nil, err
			}
			opens.fwriter[key] = g
		}
		opens.mu.Unlock()
		return &Writer{eng: &fileWriter{g: g, rank: rank}, Rank: rank}, nil
	}
	return nil, fmt.Errorf("adios: unknown engine %q", io.cfg.Engine)
}

// OpenReader opens (or joins) the reader side of a stream for one rank.
func (io *IO) OpenReader(stream string, rank, nRanks int) (*Reader, error) {
	key := io.ctx.FSRoot + "|" + stream
	switch io.cfg.Engine {
	case "stream":
		opens := io.ctx.opens
		opens.mu.Lock()
		e, ok := opens.rgroups[key]
		if !ok {
			e = &rEntry{}
			opens.rgroups[key] = e
		}
		opens.mu.Unlock()
		e.once.Do(func() {
			e.g, e.err = core.NewReaderGroup(io.ctx.Net, io.ctx.Dir, stream, nRanks, io.ctx.Monitor)
		})
		if e.err != nil {
			return nil, e.err
		}
		g := e.g
		if g.NReaders != nRanks {
			return nil, fmt.Errorf("adios: stream %q opened with %d ranks, rank %d says %d",
				stream, g.NReaders, rank, nRanks)
		}
		return &Reader{eng: &streamReader{g: g, r: g.Reader(rank), key: key, opens: opens, entry: e}, Rank: rank}, nil
	case "file":
		opens := io.ctx.opens
		opens.mu.Lock()
		g, ok := opens.freader[key]
		if !ok {
			g = newFileReaderGroup(io.ctx.FSRoot, stream, nRanks)
			opens.freader[key] = g
		}
		opens.mu.Unlock()
		return &Reader{eng: newFileReader(g, rank), Rank: rank}, nil
	}
	return nil, fmt.Errorf("adios: unknown engine %q", io.cfg.Engine)
}

// InstallPlugin deploys a data-conditioning plug-in onto this IO's reader
// group (stream engine): its source is compiled here and applied to every
// arriving event.
func (r *Reader) InstallPlugin(p dcplugin.Plugin) error {
	sr, ok := r.eng.(*streamReader)
	if !ok {
		return fmt.Errorf("adios: plug-ins require the stream engine")
	}
	fn, err := p.Filter()
	if err != nil {
		return err
	}
	sr.g.InstallNamedPlugin(p.Name, fn)
	return nil
}

// DeployPluginToWriters ships the plug-in's source into the writer
// program's address space over the coordinator channel, where it is
// compiled and applied to data before it crosses the transport (Section
// II.F runtime deployment). Stream engine only.
func (r *Reader) DeployPluginToWriters(p dcplugin.Plugin) error {
	sr, ok := r.eng.(*streamReader)
	if !ok {
		return fmt.Errorf("adios: plug-in deployment requires the stream engine")
	}
	return sr.g.DeployPluginToWriters(p)
}

// MigratePluginToWriters moves a reader-side plug-in into the writers'
// address space at runtime.
func (r *Reader) MigratePluginToWriters(p dcplugin.Plugin) error {
	sr, ok := r.eng.(*streamReader)
	if !ok {
		return fmt.Errorf("adios: plug-in migration requires the stream engine")
	}
	return sr.g.MigratePluginToWriters(p)
}

// WriterReport returns the most recent performance-monitoring report the
// simulation side shipped over the coordinator channel (Section II.G
// online monitoring). Stream engine only.
func (r *Reader) WriterReport() (monitor.Report, int64, bool) {
	sr, ok := r.eng.(*streamReader)
	if !ok {
		return monitor.Report{}, 0, false
	}
	return sr.g.WriterReport()
}

// --- Writer API (typed convenience over the engine) ---

// BeginStep starts a timestep.
func (w *Writer) BeginStep(step int64) error { return w.eng.BeginStep(step) }

// EndStep completes the rank's step.
func (w *Writer) EndStep() error { return w.eng.EndStep() }

// Close ends the stream for this rank's group (idempotent; the last
// close wins).
func (w *Writer) Close() error { return w.eng.Close() }

// WriteFloat64s writes a float64 global array region.
func (w *Writer) WriteFloat64s(name string, globalShape []int64, box ndarray.Box, data []float64) error {
	return w.eng.Write(core.VarMeta{
		Name: name, Kind: core.GlobalArrayVar, ElemSize: 8,
		GlobalShape: globalShape, Box: box,
	}, dcplugin.FloatsToBytes(data))
}

// WriteBytes writes a raw global array region.
func (w *Writer) WriteBytes(name string, elemSize int, globalShape []int64, box ndarray.Box, data []byte) error {
	return w.eng.Write(core.VarMeta{
		Name: name, Kind: core.GlobalArrayVar, ElemSize: elemSize,
		GlobalShape: globalShape, Box: box,
	}, data)
}

// WriteProcessGroup writes this rank's opaque per-process block.
func (w *Writer) WriteProcessGroup(name string, elemSize int, data []byte) error {
	return w.eng.Write(core.VarMeta{Name: name, Kind: core.ProcessGroupVar, ElemSize: elemSize}, data)
}

// WriteScalarFloat64 writes a scalar (rank 0 broadcasts it).
func (w *Writer) WriteScalarFloat64(name string, v float64) error {
	return w.eng.Write(core.VarMeta{Name: name, Kind: core.ScalarVar, ElemSize: 8},
		dcplugin.FloatsToBytes([]float64{v}))
}

// --- Reader API ---

// SelectArray declares the region of a global array this rank reads.
func (r *Reader) SelectArray(name string, box ndarray.Box) error {
	return r.eng.SelectArray(name, box)
}

// SelectProcessGroups declares which writer ranks' groups this rank reads.
func (r *Reader) SelectProcessGroups(writers []int) error {
	return r.eng.SelectProcessGroups(writers)
}

// BeginStep blocks for the next step; ok=false at End-of-Stream.
func (r *Reader) BeginStep() (int64, bool) { return r.eng.BeginStep() }

// EndStep releases the current step; bytes ReadProcessGroups returned for
// it are no longer valid afterwards.
func (r *Reader) EndStep() error { return r.eng.EndStep() }

// Close hangs up.
func (r *Reader) Close() error { return r.eng.Close() }

// ReadFloat64s reads the rank's selection of a float64 global array.
func (r *Reader) ReadFloat64s(name string) ([]float64, ndarray.Box, error) {
	raw, box, err := r.eng.ReadArray(name)
	if err != nil {
		return nil, box, err
	}
	return dcplugin.BytesToFloats(raw), box, nil
}

// ReadBytes reads the rank's selection as raw bytes.
func (r *Reader) ReadBytes(name string) ([]byte, ndarray.Box, error) {
	return r.eng.ReadArray(name)
}

// ReadScalarFloat64 reads a scalar.
func (r *Reader) ReadScalarFloat64(name string) (float64, error) {
	raw, err := r.eng.ReadScalar(name)
	if err != nil {
		return 0, err
	}
	fs := dcplugin.BytesToFloats(raw)
	if len(fs) == 0 {
		return 0, fmt.Errorf("adios: scalar %q empty", name)
	}
	return fs[0], nil
}

// ReadProcessGroups reads claimed per-writer blocks. The blocks are valid
// until this rank's EndStep: in stream mode they may sit in transport
// buffers that EndStep recycles, so copy what must outlive the step.
func (r *Reader) ReadProcessGroups(name string) (map[int][]byte, error) {
	return r.eng.ReadProcessGroups(name)
}

// --- stream engine adapters ---

type streamWriter struct {
	g      *core.WriterGroup
	w      *core.Writer
	stream string
	key    string
	opens  *openState
	entry  *wEntry
}

func (s *streamWriter) BeginStep(step int64) error              { return s.w.BeginStep(step) }
func (s *streamWriter) Write(m core.VarMeta, data []byte) error { return s.w.Write(m, data) }
func (s *streamWriter) EndStep() error                          { return s.w.EndStep() }

// Close is collective: the stream shuts down (sending End-of-Stream to
// readers) once every writer rank has closed its handle.
func (s *streamWriter) Close() error {
	s.entry.mu.Lock()
	s.entry.closes++
	last := s.entry.closes == s.g.NWriters
	s.entry.mu.Unlock()
	if !last {
		return nil
	}
	s.opens.mu.Lock()
	delete(s.opens.wgroups, s.key)
	s.opens.mu.Unlock()
	return s.g.Close()
}

type streamReader struct {
	g     *core.ReaderGroup
	r     *core.Reader
	key   string
	opens *openState
	entry *rEntry
}

func (s *streamReader) SelectArray(name string, box ndarray.Box) error {
	return s.r.SelectArray(name, box)
}
func (s *streamReader) SelectProcessGroups(writers []int) error {
	return s.r.SelectProcessGroups(writers)
}
func (s *streamReader) BeginStep() (int64, bool) { return s.r.BeginStep() }
func (s *streamReader) ReadArray(name string) ([]byte, ndarray.Box, error) {
	return s.r.ReadArray(name)
}
func (s *streamReader) ReadScalar(name string) ([]byte, error) { return s.r.ReadScalar(name) }
func (s *streamReader) ReadProcessGroups(name string) (map[int][]byte, error) {
	return s.r.ReadProcessGroups(name)
}
func (s *streamReader) EndStep() error { return s.r.EndStep() }

// Close is collective, mirroring the writer side.
func (s *streamReader) Close() error {
	s.entry.mu.Lock()
	s.entry.closes++
	last := s.entry.closes == s.g.NReaders
	s.entry.mu.Unlock()
	if !last {
		return nil
	}
	s.opens.mu.Lock()
	delete(s.opens.rgroups, s.key)
	s.opens.mu.Unlock()
	return s.g.Close()
}
