package experiments

import (
	"reflect"
	"strings"
	"testing"

	"optiflow/internal/demoapp"
)

func quickRunner() *Runner {
	return NewRunner(Config{Quick: true, TwitterSize: 2000})
}

func TestFig1Reports(t *testing.T) {
	r := quickRunner()
	for _, rep := range []*Report{r.Fig1a(), r.Fig1b()} {
		if !rep.Passed() {
			t.Fatalf("%s failed:\n%s", rep.ID, rep.Render())
		}
		if !strings.Contains(rep.Render(), "digraph") {
			t.Fatalf("%s missing dot output", rep.ID)
		}
	}
}

func TestFig2ShapeChecksPass(t *testing.T) {
	rep, err := quickRunner().Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("fig2 checks failed:\n%s", rep.Render())
	}
	for _, want := range []string{"Fig. 3(a)", "Fig. 3(d)", "converged(fail)", "messages(free)"} {
		if !strings.Contains(rep.Text, want) {
			t.Fatalf("fig2 report missing %q", want)
		}
	}
}

// TestBulkDeltaShapeChecksPass runs E9: bulk against delta CC, and the
// PageRank combiner ablation, whose check reads the shuffled-row counts
// the columnar engine reports with LocalFold on and off.
func TestBulkDeltaShapeChecksPass(t *testing.T) {
	rep, err := quickRunner().BulkDelta()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("bulkdelta checks failed:\n%s", rep.Render())
	}
	if !strings.Contains(rep.Text, "combiner ablation") {
		t.Fatal("bulkdelta report missing the combiner ablation")
	}
}

// TestConfinedShapeChecksPass runs E11: optimistic against confined
// recovery on SSSP, every row on the same vertex-centric engine.
func TestConfinedShapeChecksPass(t *testing.T) {
	rep, err := quickRunner().Confined()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("confined checks failed:\n%s", rep.Render())
	}
}

func TestFig4ShapeChecksPass(t *testing.T) {
	rep, err := quickRunner().Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("fig4 checks failed:\n%s", rep.Render())
	}
	if !strings.Contains(rep.Text, "Fig. 5(c) after compensation") {
		t.Fatal("fig4 frames missing")
	}
}

func TestTwitterShapeChecksPass(t *testing.T) {
	rep, err := quickRunner().Twitter()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("twitter checks failed:\n%s", rep.Render())
	}
}

func TestCompensationAblation(t *testing.T) {
	rep, err := quickRunner().Compensation()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("compensation checks failed:\n%s", rep.Render())
	}
}

func TestRunnerDispatch(t *testing.T) {
	r := quickRunner()
	if _, err := r.Run("fig1a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run("nope"); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
	names := r.Names()
	if len(names) != 13 || names[0] != "fig1a" {
		t.Fatalf("names = %v", names)
	}
}

func TestChaosSoak(t *testing.T) {
	r := NewRunner(Config{Quick: true, TwitterSize: 2000, NewCluster: testClusterFactory(t)})
	rep, err := r.ChaosSoak()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("chaos soak checks failed:\n%s", rep.Render())
	}
	csv, ok := rep.CSVs["chaos-soak.csv"]
	if !ok {
		t.Fatal("chaos-soak.csv missing")
	}
	if !strings.HasPrefix(csv, "workload,policy,seed,failures,retries,escalations,") {
		t.Fatalf("csv header = %q", strings.SplitN(csv, "\n", 2)[0])
	}
	// quick mode: 2 seeds x 2 workloads x 4 policies
	if lines := strings.Count(strings.TrimSpace(csv), "\n"); lines != 16 {
		t.Fatalf("csv rows = %d, want 16", lines)
	}
}

func TestReportRenderShowsFailures(t *testing.T) {
	rep := &Report{
		ID: "EX", Figure: "fig", Title: "t", Text: "body\n",
		Checks: []Check{
			{Description: "good", Pass: true},
			{Description: "bad", Pass: false, Detail: "because"},
		},
	}
	out := rep.Render()
	if !strings.Contains(out, "[PASS] good") || !strings.Contains(out, "[FAIL] bad — because") {
		t.Fatalf("render = %s", out)
	}
	if rep.Passed() {
		t.Fatal("Passed should be false")
	}
}

// Golden regression: the demo scenario is fully deterministic, so the
// exact per-iteration series of Figures 2/3 must never drift.
func TestFig2GoldenSeries(t *testing.T) {
	withFail, err := demoapp.Run(demoapp.Config{
		Mode:        demoapp.ModeCC,
		Parallelism: 4,
		Failures:    map[int][]int{0: {0}, 2: {1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantConverged := []float64{9, 14, 13, 16, 16}
	wantMessages := []float64{34, 38, 14, 29, 7}
	if got := withFail.Stats.Series("converged-vertices"); !reflect.DeepEqual(got, wantConverged) {
		t.Fatalf("converged series drifted: %v, want %v", got, wantConverged)
	}
	if got := withFail.Stats.Series("messages"); !reflect.DeepEqual(got, wantMessages) {
		t.Fatalf("messages series drifted: %v, want %v", got, wantMessages)
	}
	if got := withFail.Stats.FailureTicks(); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("failure ticks drifted: %v", got)
	}
}
