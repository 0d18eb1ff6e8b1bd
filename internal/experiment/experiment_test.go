package experiment

import (
	"strings"
	"testing"
)

func TestFig4Shapes(t *testing.T) {
	fig, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	dyn, stat := fig.Series[0], fig.Series[1]
	for i := range dyn.X {
		if stat.Y[i] <= dyn.Y[i] {
			t.Fatalf("static must beat dynamic at %g bytes", dyn.X[i])
		}
	}
	// Convergence at large sizes.
	n := len(dyn.Y) - 1
	if stat.Y[0]/dyn.Y[0] < 2*(stat.Y[n]/dyn.Y[n]) {
		t.Fatal("registration gap must shrink with message size")
	}
}

func TestFig6SmokyShapes(t *testing.T) {
	fig, err := Fig6("Smoky")
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Series{}
	for _, s := range fig.Series {
		byLabel[s.Label] = s
	}
	topo := byLabel["HelperCore(TopoAware)"]
	if len(topo.X) < 3 {
		t.Fatalf("too few scales: %d", len(topo.X))
	}
	for i := range topo.X {
		inline := byLabel["Inline"].Y[i]
		holistic := byLabel["HelperCore(Holistic)"].Y[i]
		staging := byLabel["Staging"].Y[i]
		lb := byLabel["LowerBound"].Y[i]
		if !(topo.Y[i] <= holistic*1.001) {
			t.Errorf("scale %g: topo %g > holistic %g", topo.X[i], topo.Y[i], holistic)
		}
		if !(topo.Y[i] < inline) {
			t.Errorf("scale %g: topo %g !< inline %g", topo.X[i], topo.Y[i], inline)
		}
		if !(topo.Y[i] < staging) {
			t.Errorf("scale %g: topo %g !< staging %g", topo.X[i], topo.Y[i], staging)
		}
		if gap := topo.Y[i]/lb - 1; gap < 0 || gap > 0.13 {
			t.Errorf("scale %g: gap to lower bound %.1f%%", topo.X[i], gap*100)
		}
	}
}

func TestFig7Notes(t *testing.T) {
	fig, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("cases = %d", len(fig.Series))
	}
	// Case1 sim compute must exceed case3 solo (co-location overhead).
	if fig.Series[0].Y[0] <= fig.Series[2].Y[0] {
		t.Fatal("helper-core sim compute must exceed solo")
	}
	// Case2 (inline) interval must be the largest total.
	sum := func(ys []float64) float64 {
		var t float64
		for _, y := range ys {
			t += y
		}
		return t
	}
	// Compare sim-side critical path (compute + I/O + inline analysis).
	case1 := fig.Series[0].Y[0] + fig.Series[0].Y[1]
	case2 := fig.Series[1].Y[0] + fig.Series[1].Y[1] + fig.Series[1].Y[2]
	if case2 <= case1 {
		t.Fatalf("inline critical path %g must exceed helper-core %g", case2, case1)
	}
	_ = sum
}

func TestFig8Calibration(t *testing.T) {
	fig, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	solo := fig.Series[0].Y[0]
	shared := fig.Series[1].Y[0]
	infl := shared/solo - 1
	if infl < 0.40 || infl > 0.55 {
		t.Fatalf("miss inflation %.0f%%, want ~47%%", infl*100)
	}
}

func TestFig9SmokyShapes(t *testing.T) {
	fig, err := Fig9("Smoky")
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Series{}
	for _, s := range fig.Series {
		byLabel[s.Label] = s
	}
	ho := byLabel["Staging(Holistic)"]
	for i := range ho.X {
		inline := byLabel["Inline"].Y[i]
		hybrid := byLabel["Hybrid(DataAware)"].Y[i]
		topo := byLabel["Staging(TopoAware)"].Y[i]
		lb := byLabel["LowerBound"].Y[i]
		if !(ho.Y[i] < inline) {
			t.Errorf("scale %g: staging %g !< inline %g", ho.X[i], ho.Y[i], inline)
		}
		if !(ho.Y[i] <= hybrid*1.001) {
			t.Errorf("scale %g: staging %g > hybrid %g", ho.X[i], ho.Y[i], hybrid)
		}
		if !(topo <= ho.Y[i]*1.001) {
			t.Errorf("scale %g: topo %g > holistic %g", ho.X[i], topo, ho.Y[i])
		}
		if gap := topo/lb - 1; gap < 0 || gap > 0.10 {
			t.Errorf("scale %g: staging gap to LB %.1f%%", ho.X[i], gap*100)
		}
	}
	// Staging advantage over inline grows with scale (file I/O).
	adv := func(i int) float64 { return 1 - ho.Y[i]/byLabel["Inline"].Y[i] }
	if adv(len(ho.X)-1) <= adv(0) {
		t.Errorf("staging advantage should grow with scale: %f vs %f", adv(0), adv(len(ho.X)-1))
	}
}

func TestS3DTuningShape(t *testing.T) {
	fig, err := S3DTuning()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		untuned, tuned := s.Y[0], s.Y[1]
		if tuned >= untuned/10 {
			t.Errorf("%s: tuning must cut visible movement >10x: %.3f -> %.3f", s.Label, untuned, tuned)
		}
		if untuned < 0.5 || untuned > 10 {
			t.Errorf("%s: untuned %.2fs out of plausible band (paper: 1.2-4.0s)", s.Label, untuned)
		}
		if tuned > 0.3 {
			t.Errorf("%s: tuned %.3fs too slow (paper: 0.053-0.077s)", s.Label, tuned)
		}
	}
}

func TestClaimsAllInBand(t *testing.T) {
	fig, err := Claims()
	if err != nil {
		for _, n := range fig.Notes {
			t.Log(n)
		}
		t.Fatal(err)
	}
}

func TestFprintRenders(t *testing.T) {
	fig, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := fig.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"FIG4", "Dynamic", "Static", "note:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"claims", "fig4", "fig6a", "fig6b", "fig7", "fig8", "fig9a", "fig9b", "fleetobs", "multiproc", "reconfig", "replay", "s3dtune", "tenants", "trace"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("ids = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids = %v, want %v", got, want)
		}
	}
	// -list prints one line per id; every driver must carry one.
	for id, d := range Registry {
		if d.Desc == "" {
			t.Errorf("experiment %q has no description", id)
		}
		if d.Run == nil {
			t.Errorf("experiment %q has no driver", id)
		}
	}
}

func TestReconfigBenchRuns(t *testing.T) {
	fig, err := ReconfigBench("") // no artifact in tests
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want drain + wall", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) != 4 {
			t.Fatalf("%s: %d points, want 4 scenarios", s.Label, len(s.Y))
		}
		for i, y := range s.Y {
			if y <= 0 {
				t.Errorf("%s scenario %d: %g us, want > 0", s.Label, i, y)
			}
		}
	}
}
