package adios

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"flexio/internal/core"
	"flexio/internal/dcplugin"
	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/monitor"
	"flexio/internal/ndarray"
)

const testConfigXML = `
<adios-config>
  <io name="particles">
    <engine type="stream">
      <parameter name="caching" value="CACHING_ALL"/>
      <parameter name="batching" value="true"/>
      <parameter name="async" value="true"/>
      <parameter name="queue_depth" value="4"/>
    </engine>
  </io>
  <io name="restart">
    <engine type="file"/>
  </io>
</adios-config>`

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(testConfigXML))
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.IOs["particles"]
	if p == nil || p.Engine != "stream" {
		t.Fatalf("particles = %+v", p)
	}
	opts, err := p.coreOptions()
	if err != nil {
		t.Fatal(err)
	}
	if !opts.Batching || !opts.Async || opts.AsyncQueueDepth != 4 {
		t.Fatalf("opts = %+v", opts)
	}
	if cfg.IOs["restart"].Engine != "file" {
		t.Fatal("restart should be file engine")
	}
}

func TestParseConfigErrors(t *testing.T) {
	bad := []string{
		`<adios-config><io><engine type="stream"/></io></adios-config>`,        // no name
		`<adios-config><io name="a"/><io name="a"/></adios-config>`,            // duplicate
		`<adios-config><io name="a"><engine type="hdf5"/></io></adios-config>`, // engine
		`not xml at all`,
	}
	for _, src := range bad {
		if _, err := ParseConfig(strings.NewReader(src)); err == nil {
			t.Errorf("config %q parsed but should not", src)
		}
	}
	badParams := []string{
		`<parameter name="caching" value="SOMETIMES"/>`,
		`<parameter name="batching" value="maybe"/>`,
		`<parameter name="async" value="?"/>`,
		`<parameter name="queue_depth" value="0"/>`,
		`<parameter name="transport" value="carrier-pigeon"/>`,
		`<parameter name="transport" value="rdma"/>`, // the retired emulator
		`<parameter name="wormhole" value="1"/>`,
	}
	for _, p := range badParams {
		src := `<adios-config><io name="x"><engine type="stream">` + p + `</engine></io></adios-config>`
		cfg, err := ParseConfig(strings.NewReader(src))
		if err != nil {
			t.Errorf("%s: parse failed early: %v", p, err)
			continue
		}
		if _, err := cfg.IOs["x"].coreOptions(); err == nil {
			t.Errorf("%s: options accepted but should not", p)
		}
	}
}

func newTestContext(t *testing.T, cfgXML string) *Context {
	t.Helper()
	var cfg *Config
	if cfgXML != "" {
		var err error
		cfg, err = ParseConfig(strings.NewReader(cfgXML))
		if err != nil {
			t.Fatal(err)
		}
	}
	return NewContext(evpath.NewNet(nil), directory.NewMem(), t.TempDir(), cfg)
}

// runEngineRoundTrip exercises the identical application code against a
// given IO group — the paper's central compatibility claim: the same
// program works in stream mode and file mode, switched only by config.
func runEngineRoundTrip(t *testing.T, ctx *Context, ioName string) {
	t.Helper()
	io, err := ctx.DeclareIO(ioName)
	if err != nil {
		t.Fatal(err)
	}
	const nw, nr, steps = 4, 2, 3
	shape := []int64{16, 16}
	wdec, _ := ndarray.BlockDecompose(shape, []int{2, 2})
	rdec, _ := ndarray.BlockDecompose(shape, []int{2, 1})
	stream := "demo-" + ioName

	var writers sync.WaitGroup
	for w := 0; w < nw; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			wr, err := io.OpenWriter(stream, w, nw)
			if err != nil {
				t.Errorf("writer %d open: %v", w, err)
				return
			}
			for s := int64(0); s < steps; s++ {
				if err := wr.BeginStep(s); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				box := wdec.Boxes[w]
				data := make([]float64, box.NumElements())
				for i := range data {
					data[i] = float64(w*1000) + float64(s)
				}
				if err := wr.WriteFloat64s("field", shape, box, data); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if w == 0 {
					if err := wr.WriteScalarFloat64("time", float64(s)*0.5); err != nil {
						t.Errorf("writer %d scalar: %v", w, err)
						return
					}
				}
				if err := wr.EndStep(); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
			if err := wr.Close(); err != nil {
				t.Errorf("writer %d close: %v", w, err)
			}
		}()
	}

	var readers sync.WaitGroup
	for r := 0; r < nr; r++ {
		r := r
		readers.Add(1)
		go func() {
			defer readers.Done()
			rd, err := io.OpenReader(stream, r, nr)
			if err != nil {
				t.Errorf("reader %d open: %v", r, err)
				return
			}
			if err := rd.SelectArray("field", rdec.Boxes[r]); err != nil {
				t.Errorf("reader %d: %v", r, err)
				return
			}
			for s := int64(0); s < steps; s++ {
				step, ok := rd.BeginStep()
				if !ok || step != s {
					t.Errorf("reader %d: step %d ok=%v want %d", r, step, ok, s)
					return
				}
				data, box, err := rd.ReadFloat64s("field")
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if int64(len(data)) != box.NumElements() {
					t.Errorf("reader %d: %d values for box %v", r, len(data), box)
					return
				}
				// Spot-check: first element belongs to some writer block
				// and must carry that writer's signature for this step.
				v := data[0]
				wRank := int(v) / 1000
				if v != float64(wRank*1000)+float64(s) {
					t.Errorf("reader %d step %d: bad value %g", r, s, v)
					return
				}
				tv, err := rd.ReadScalarFloat64("time")
				if err != nil {
					t.Errorf("reader %d scalar: %v", r, err)
					return
				}
				if tv != float64(s)*0.5 {
					t.Errorf("reader %d: time = %g, want %g", r, tv, float64(s)*0.5)
					return
				}
				rd.EndStep()
			}
			if _, ok := rd.BeginStep(); ok {
				t.Errorf("reader %d: expected EOS", r)
			}
		}()
	}
	// For stream mode, close only after all writers wrote (the writer
	// close above is on rank 0 after its loop — but ranks complete
	// together since EndStep synchronizes). Wait all.
	writers.Wait()
	readers.Wait()
}

func TestStreamEngineRoundTrip(t *testing.T) {
	ctx := newTestContext(t, "")
	runEngineRoundTrip(t, ctx, "unconfigured") // defaults to stream
}

func TestFileEngineRoundTrip(t *testing.T) {
	ctx := newTestContext(t, testConfigXML)
	runEngineRoundTrip(t, ctx, "restart")
}

func TestConfiguredStreamEngine(t *testing.T) {
	ctx := newTestContext(t, testConfigXML)
	runEngineRoundTrip(t, ctx, "particles") // CACHING_ALL + batching + async
}

// TestConfiguredTCPTransport selects the wire by config alone: every
// writer-reader pair crosses a loopback socket of the context's Net.
func TestConfiguredTCPTransport(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`<adios-config><io name="wire"><engine type="stream">` +
		`<parameter name="transport" value="tcp"/></engine></io></adios-config>`))
	if err != nil {
		t.Fatal(err)
	}
	net := evpath.NewNet(nil)
	if err := net.ServeLoopback(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.CloseTCP)
	runEngineRoundTrip(t, NewContext(net, directory.NewMem(), t.TempDir(), cfg), "wire")
	if s := net.TCPStatsSnapshot(); s.Opens == 0 || s.MsgsTX == 0 {
		t.Fatalf("transport=tcp moved nothing over the wire: %+v", s)
	}
}

func TestEngineSwitchIsConfigOnly(t *testing.T) {
	// The same runEngineRoundTrip body ran under both engines above;
	// this test pins the property explicitly by diffing nothing but the
	// config string.
	cfgStream := `<adios-config><io name="out"><engine type="stream"/></io></adios-config>`
	cfgFile := `<adios-config><io name="out"><engine type="file"/></io></adios-config>`
	for _, cfg := range []string{cfgStream, cfgFile} {
		ctx := newTestContext(t, cfg)
		runEngineRoundTrip(t, ctx, "out")
	}
}

func TestFileModeOnDiskArtifacts(t *testing.T) {
	ctx := newTestContext(t, `<adios-config><io name="o"><engine type="file"/></io></adios-config>`)
	io, _ := ctx.DeclareIO("o")
	wr, err := io.OpenWriter("artifacts", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	wr.BeginStep(0)
	shape := []int64{4}
	wr.WriteFloat64s("x", shape, ndarray.BoxFromShape(shape), []float64{1, 2, 3, 4})
	wr.EndStep()
	wr.Close()

	bpDir := ctx.FSRoot + "/artifacts.bp"
	for _, f := range []string{"step-000000.bp", ".done"} {
		if _, err := os.Stat(bpDir + "/" + f); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
}

func TestParseBPCorrupt(t *testing.T) {
	if _, err := parseBP([]byte("garbage")); err == nil {
		t.Fatal("garbage must not parse")
	}
	// Truncations of a valid container must all fail cleanly.
	g := &fileWriterGroup{dir: t.TempDir(), nRanks: 1, curStep: map[int64]*fileStep{}}
	st := &fileStep{step: 0, done: make(chan struct{})}
	shape := []int64{8}
	st.records = []fileRecord{{
		meta: core.VarMeta{Name: "v", Kind: core.GlobalArrayVar, ElemSize: 8,
			GlobalShape: shape, Box: ndarray.BoxFromShape(shape)},
		data: bytes.Repeat([]byte{1}, 64),
	}}
	if err := g.writeStepFile(st); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(g.dir + "/step-000000.bp")
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(bpMagic); cut < len(raw)-1; cut += 7 {
		if _, err := parseBP(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d parsed", cut)
		}
	}
}

func TestFilePluginRejected(t *testing.T) {
	ctx := newTestContext(t, `<adios-config><io name="o"><engine type="file"/></io></adios-config>`)
	io, _ := ctx.DeclareIO("o")
	// The writer goroutine must not outlive the test: if it did, its
	// OpenWriter would race the framework's TempDir cleanup (and a failed
	// open would nil-deref in BeginStep). Synchronize on completion and
	// surface any error through the channel.
	writerDone := make(chan error, 1)
	go func() {
		wr, err := io.OpenWriter("pr", 0, 1)
		if err != nil {
			writerDone <- err
			return
		}
		wr.BeginStep(0)
		wr.EndStep()
		writerDone <- wr.Close()
	}()
	defer func() {
		if err := <-writerDone; err != nil {
			t.Errorf("writer goroutine: %v", err)
		}
	}()
	rd, err := io.OpenReader("pr", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.InstallPlugin(dcplugin.SamplePlugin(2)); err == nil {
		t.Fatal("file engine must reject plug-ins")
	}
}

func TestOpenWriterRankMismatch(t *testing.T) {
	ctx := newTestContext(t, "")
	io, _ := ctx.DeclareIO("g")
	if _, err := io.OpenWriter("mm", 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := io.OpenWriter("mm", 1, 3); err == nil {
		t.Fatal("rank-count mismatch must fail")
	}
}

func TestDeclareIOUnknownDefaultsToStream(t *testing.T) {
	ctx := newTestContext(t, testConfigXML)
	io, err := ctx.DeclareIO("not-in-config")
	if err != nil {
		t.Fatal(err)
	}
	if io.Engine() != "stream" {
		t.Fatalf("engine = %q", io.Engine())
	}
}

func TestAdiosPluginDeploymentAndMonitoring(t *testing.T) {
	ctx := newTestContext(t, "")
	ctx.Monitor = monitor.New("ctx")
	io, _ := ctx.DeclareIO("plugmon")

	// The writer must open first (it registers the stream), but only
	// starts writing once the reader has deployed its plug-in.
	wr, err := io.OpenWriter("pm", 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	deployed := make(chan struct{})
	go func() {
		defer wg.Done()
		rd, err := io.OpenReader("pm", 0, 1)
		if err != nil {
			t.Errorf("open reader: %v", err)
			close(deployed)
			return
		}
		if err := rd.SelectProcessGroups([]int{0}); err != nil {
			t.Error(err)
			close(deployed)
			return
		}
		// Deploy a sampler into the writer before data flows.
		if err := rd.DeployPluginToWriters(dcplugin.SamplePlugin(4)); err != nil {
			t.Errorf("deploy: %v", err)
			close(deployed)
			return
		}
		close(deployed)
		for {
			_, ok := rd.BeginStep()
			if !ok {
				break
			}
			groups, err := rd.ReadProcessGroups("p")
			if err != nil {
				t.Error(err)
				return
			}
			if n := len(dcplugin.BytesToFloats(groups[0])); n != 16 {
				t.Errorf("writer-side conditioning missing: %d values", n)
			}
			rd.EndStep()
			// The monitoring report for this step arrives asynchronously.
			for i := 0; i < 200; i++ {
				if _, _, ok := rd.WriterReport(); ok {
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
		if _, _, ok := rd.WriterReport(); !ok {
			t.Error("no writer monitoring report at the adios layer")
		}
		rd.Close()
	}()

	<-deployed
	wr.BeginStep(0)
	if err := wr.WriteProcessGroup("p", 8, dcplugin.FloatsToBytes(make([]float64, 64))); err != nil {
		t.Fatal(err)
	}
	wr.EndStep()
	wr.Close()
	wg.Wait()
}
