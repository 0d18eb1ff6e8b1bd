package dcplugin

import (
	"math"
	"testing"
	"testing/quick"

	"flexio/internal/evpath"
)

func TestFloatsBytesRoundTrip(t *testing.T) {
	f := func(fs []float64) bool {
		for _, x := range fs {
			if math.IsNaN(x) {
				return true
			}
		}
		got := BytesToFloats(FloatsToBytes(fs))
		if len(got) != len(fs) {
			return false
		}
		for i := range fs {
			if got[i] != fs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesToFloatsIgnoresTrailing(t *testing.T) {
	b := append(FloatsToBytes([]float64{1, 2}), 0xFF, 0xFF)
	if got := BytesToFloats(b); len(got) != 2 {
		t.Fatalf("len = %d, want 2", len(got))
	}
}

func runPlugin(t *testing.T, p Plugin, data []float64, meta evpath.Record) *evpath.Event {
	t.Helper()
	filter, err := p.Filter()
	if err != nil {
		t.Fatalf("plugin %s: %v", p.Name, err)
	}
	if meta == nil {
		meta = evpath.Record{}
	}
	ev := &evpath.Event{Meta: meta, Data: FloatsToBytes(data)}
	out, err := filter(ev)
	if err != nil {
		t.Fatalf("plugin %s run: %v", p.Name, err)
	}
	return out
}

func TestSamplePlugin(t *testing.T) {
	data := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	out := runPlugin(t, SamplePlugin(4), data, nil)
	got := BytesToFloats(out.Data)
	want := []float64{0, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("sampled %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sampled %v, want %v", got, want)
		}
	}
	if s, _ := out.Meta.GetFloat("dc.sample_stride"); s != 4 {
		t.Fatalf("stride meta = %v", out.Meta["dc.sample_stride"])
	}
	if name, _ := out.Meta.GetString("dc.plugin"); name != "sample-1of4" {
		t.Fatalf("plugin marker = %q", name)
	}
}

func TestSelectRangePlugin(t *testing.T) {
	// Particles with stride 2: (pos, vel). Select vel in [0.5, 1.0).
	data := []float64{
		10, 0.1, // rejected
		20, 0.6, // kept
		30, 0.99, // kept
		40, 1.0, // rejected (exclusive hi)
	}
	out := runPlugin(t, SelectRangePlugin(2, 1, 0.5, 1.0), data, nil)
	got := BytesToFloats(out.Data)
	if len(got) != 4 || got[0] != 20 || got[2] != 30 {
		t.Fatalf("selected %v", got)
	}
}

func TestSelectRangeSelectivity(t *testing.T) {
	// The paper's GTS query keeps ~20% of particles; verify the plugin
	// respects an arbitrary selectivity on uniform data.
	const n = 1000
	const stride = 7
	data := make([]float64, n*stride)
	for i := 0; i < n; i++ {
		for a := 0; a < stride; a++ {
			data[i*stride+a] = float64(i) / n // attribute ~ U[0,1)
		}
	}
	out := runPlugin(t, SelectRangePlugin(stride, 3, 0.0, 0.2), data, nil)
	kept := len(BytesToFloats(out.Data)) / stride
	if kept < 150 || kept > 250 {
		t.Fatalf("kept %d of %d particles, want ~200", kept, n)
	}
}

func TestBoundingBoxPlugin(t *testing.T) {
	out := runPlugin(t, BoundingBoxPlugin(), []float64{3, -1, 7, 2}, nil)
	lo, _ := out.Meta.GetFloat("dc.bbox_min")
	hi, _ := out.Meta.GetFloat("dc.bbox_max")
	if lo != -1 || hi != 7 {
		t.Fatalf("bbox = [%g, %g]", lo, hi)
	}
	// Payload passes through untouched (no pushes).
	if got := BytesToFloats(out.Data); len(got) != 4 {
		t.Fatalf("payload altered: %v", got)
	}
}

func TestUnitConvertPlugin(t *testing.T) {
	out := runPlugin(t, UnitConvertPlugin(0.01), []float64{100, 250}, nil)
	got := BytesToFloats(out.Data)
	if got[0] != 1 || got[1] != 2.5 {
		t.Fatalf("converted %v", got)
	}
}

func TestAnnotatePlugin(t *testing.T) {
	out := runPlugin(t, AnnotatePlugin("origin", "gts-rank-3"), nil, evpath.Record{"step": int64(4)})
	if v, _ := out.Meta.GetString("origin"); v != "gts-rank-3" {
		t.Fatalf("annotation = %v", out.Meta)
	}
	if v, _ := out.Meta.GetInt("step"); v != 4 {
		t.Fatal("original meta must be preserved")
	}
}

func TestMinStepPluginDrops(t *testing.T) {
	p := MinStepPlugin(10)
	filter, err := p.Filter()
	if err != nil {
		t.Fatal(err)
	}
	early := &evpath.Event{Meta: evpath.Record{"step": int64(5)}, Data: nil}
	if out, err := filter(early); err != nil || out != nil {
		t.Fatalf("early event should drop: %v, %v", out, err)
	}
	late := &evpath.Event{Meta: evpath.Record{"step": int64(15)}, Data: nil}
	if out, err := filter(late); err != nil || out == nil {
		t.Fatalf("late event should pass: %v, %v", out, err)
	}
}

func TestPluginCompileErrorSurfaces(t *testing.T) {
	if _, err := (Plugin{Name: "bad", Source: "x = ;"}).Filter(); err == nil {
		t.Fatal("bad plugin source must fail Filter()")
	}
}

func TestPluginChainThroughFilterStones(t *testing.T) {
	// Compose two plug-ins the way a chain of filter stones runs them —
	// each filter function fed the previous one's output: unit conversion
	// then bounding box — verifying plug-ins stack along the I/O path.
	conv, err := UnitConvertPlugin(2).Filter()
	if err != nil {
		t.Fatal(err)
	}
	bbox, err := BoundingBoxPlugin().Filter()
	if err != nil {
		t.Fatal(err)
	}
	final := &evpath.Event{Meta: evpath.Record{}, Data: FloatsToBytes([]float64{1, 5, 3})}
	for _, fn := range []evpath.FilterFunc{conv, bbox} {
		if final, err = fn(final); err != nil {
			t.Fatal(err)
		}
		if final == nil {
			t.Fatal("event lost in chain")
		}
	}
	lo, _ := final.Meta.GetFloat("dc.bbox_min")
	hi, _ := final.Meta.GetFloat("dc.bbox_max")
	if lo != 2 || hi != 10 {
		t.Fatalf("bbox after conversion = [%g, %g], want [2, 10]", lo, hi)
	}
}

func TestPluginMigrationViaSourceString(t *testing.T) {
	// The mobility property: serialize the plugin source into a record,
	// "ship" it, recompile at the destination, and get identical
	// behaviour.
	orig := SelectRangePlugin(2, 1, 0.0, 0.5)
	wire, err := evpath.Encode(evpath.Record{"name": orig.Name, "src": orig.Source})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := evpath.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	name, _ := rec.GetString("name")
	src, _ := rec.GetString("src")
	shipped := Plugin{Name: name, Source: src}

	data := []float64{1, 0.4, 2, 0.6}
	a := runPlugin(t, orig, data, nil)
	b := runPlugin(t, shipped, data, nil)
	ga, gb := BytesToFloats(a.Data), BytesToFloats(b.Data)
	if len(ga) != len(gb) || len(ga) != 2 || ga[0] != gb[0] {
		t.Fatalf("migrated plugin differs: %v vs %v", ga, gb)
	}
}

func BenchmarkDCPluginCompile(b *testing.B) {
	src := SelectRangePlugin(7, 3, 0.2, 0.8).Source
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDCPluginExecute(b *testing.B) {
	prog := MustCompile(SelectRangePlugin(7, 3, 0.2, 0.8).Source)
	data := make([]float64, 7*1000)
	for i := range data {
		data[i] = float64(i%100) / 100
	}
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := NewEnv(data, nil)
		if err := prog.Run(env, 0); err != nil {
			b.Fatal(err)
		}
	}
}
