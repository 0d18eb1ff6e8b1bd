package experiment

import (
	"strings"
	"testing"
)

func TestReplayCleanRun(t *testing.T) {
	fig, err := ReplayRun(false)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(fig.Notes, "\n")
	if !strings.Contains(joined, "byte-identical") {
		t.Fatalf("notes lack the clean verdict:\n%s", joined)
	}
}

func TestReplayDetectsInjectedDivergence(t *testing.T) {
	fig, err := ReplayRun(true)
	if err == nil {
		t.Fatal("injected divergence must fail the experiment")
	}
	if !strings.Contains(err.Error(), "divergence") {
		t.Fatalf("error %q does not report the divergence", err)
	}
	if fig == nil || !strings.Contains(strings.Join(fig.Notes, "\n"), "divergence at event") {
		t.Fatal("figure notes must locate the diverging event")
	}
}

func TestCritpathEdgeSumWithinBudget(t *testing.T) {
	fig := &Figure{}
	if _, _, err := critpathScenario(fig); err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 {
		t.Fatalf("series = %d, want 1", len(fig.Series))
	}
	var sum float64
	for _, y := range fig.Series[0].Y {
		sum += y
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("shares sum to %f, want ~1", sum)
	}
	joined := strings.Join(fig.Notes, "\n")
	for _, want := range []string{"worst skew", "dominant point"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("notes lack %q:\n%s", want, joined)
		}
	}
}
