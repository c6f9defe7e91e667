package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"optiflow/internal/algo/ref"
	"optiflow/internal/cluster/proc"
)

// TestMain makes the test binary a valid worker host, so the proc
// workloads below run on real worker processes.
func TestMain(m *testing.M) {
	proc.MaybeChildMode()
	os.Exit(m.Run())
}

// TestSmokeAllWorkloads runs every workload and every variant, bare and
// traced, at toy scale. It exists so that an API change in a layer
// breaks `go test ./...` instead of silently breaking the ledger.
func TestSmokeAllWorkloads(t *testing.T) {
	procs := newProcSet()
	defer procs.closeAll()
	for i, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			// Consecutive seeds alternate the victim worker.
			m, err := measure(config{wl: wl, sc: toyScale, seed: int64(20150531 + i), rounds: 1,
				traced: true, keepSpans: 1}, procs)
			if err != nil {
				t.Fatal(err)
			}
			e := m.entry("test", 0)
			if !e.Correct || e.Failed != 0 || e.Attempted == 0 {
				t.Fatalf("correct=%v, %d failed of %d attempted", e.Correct, e.Failed, e.Attempted)
			}
			for _, spec := range endToEndSpecs {
				if s, ok := e.EndToEnd[spec.name]; !ok || !(s.Value > 0) || s.N == 0 {
					t.Errorf("end-to-end metric %s = %+v, want a positive median", spec.name, s)
				}
			}
			na := make(map[string]bool)
			for _, name := range e.NotApplicable {
				na[name] = true
			}
			for _, spec := range perLayerSpecs {
				v, ok := e.PerLayer[spec.name]
				if !ok {
					t.Errorf("per-layer metric %s missing", spec.name)
				}
				procOnly := strings.HasPrefix(spec.name, "proc.")
				inprocOnly := spec.name == "algo.build_ms" || strings.Contains(spec.name, "async")
				if want := procOnly && !wl.proc || inprocOnly && wl.proc; na[spec.name] != want {
					t.Errorf("per-layer metric %s: not-applicable = %v, want %v", spec.name, na[spec.name], want)
				}
				if na[spec.name] && v != 0 {
					t.Errorf("not-applicable metric %s reported as %v", spec.name, v)
				}
			}
			for _, name := range []string{"step.busy_ms_per_superstep", "iterate.supersteps", "state.snapshot_bytes",
				"checkpoint.saves", "recovery.barrier_ms_per_checkpoint", "cluster.start_ms"} {
				if !(e.PerLayer[name] > 0) {
					t.Errorf("per-layer metric %s = %v, want > 0", name, e.PerLayer[name])
				}
			}
			if len(e.PerLayer) != len(perLayerSpecs) {
				t.Errorf("%d per-layer metrics computed, %d declared", len(e.PerLayer), len(perLayerSpecs))
			}

			wantVariants := len(endToEndVariants)
			if !wl.proc {
				wantVariants++ // async
			}
			if len(e.Counts) != wantVariants {
				t.Errorf("%d variants ran, want %d: %v", len(e.Counts), wantVariants, e.Counts)
			}
			for v, c := range e.Counts {
				if !c.Repeat || c.Jobs != 2 {
					t.Errorf("%s: counts %+v did not repeat between the bare and the traced job", v, c)
				}
			}
			if extra := e.PerLayer["recovery.extra_ticks_optimistic"]; extra < 0 {
				t.Errorf("optimistic recovery finished in %v fewer ticks than the failure-free run", -extra)
			}

			names := spanNames(m.spans)
			want := []string{"run", "graph.gen", "graph.dense", "cluster.start", "job.load", "iterate.run",
				"step", "policy.setup", "policy.after", "job.snapshot", "store.save", "cluster.fail", "cluster.acquire",
				"job.clear", "policy.onfailure", "store.load", "job.restore", "job.compensate", "result.fetch", "verify"}
			if !wl.proc {
				want = append(want, "job.capture", "policy.finish")
			}
			for _, name := range want {
				if names[name] == 0 {
					t.Errorf("span file has no %q span", name)
				}
			}
			checkSpanTree(t, m.spans)

			var line map[string]json.RawMessage
			data, _ := json.Marshal(e.resultLine())
			if err := json.Unmarshal(data, &line); err != nil || len(line) != 4 {
				t.Errorf("result line %s does not have exactly the four contract keys", data)
			}
		})
	}
	// Every coordinator was closed and every worker reaped.
	if pids := procs.survivors(); len(pids) != 0 {
		t.Errorf("worker processes %v outlived the run", pids)
	}
}

// checkSpanTree verifies ids, parents and nesting within each run.
func checkSpanTree(t *testing.T, spans []span) {
	t.Helper()
	byRun := make(map[int][]span)
	for _, s := range spans {
		byRun[s.Run] = append(byRun[s.Run], s)
	}
	for run, ss := range byRun {
		for i, s := range ss {
			if s.ID != i {
				t.Fatalf("run %d: span %d has id %d", run, i, s.ID)
			}
			if s.EndNs < s.StartNs {
				t.Errorf("run %d: span %s ends before it starts", run, s.Name)
			}
			if i == 0 {
				if s.Parent != -1 || s.Name != "run" || s.Workload == "" || s.Variant == "" {
					t.Errorf("run %d: root span %+v", run, s)
				}
				continue
			}
			if s.Parent < 0 || s.Parent >= i {
				t.Fatalf("run %d: span %s has parent %d", run, s.Name, s.Parent)
			}
			if p := ss[s.Parent]; s.Name != "store.save" && (s.StartNs < p.StartNs || s.EndNs > p.EndNs) {
				t.Errorf("run %d: span %s [%d,%d] is not inside its parent %s [%d,%d]",
					run, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
			}
		}
	}
}

// The correctness gate: a wrong result, and an injected failure that
// never landed, must each count as a failed operation.
func TestGateRejectsWrongResultsAndMissedFailures(t *testing.T) {
	wl, _ := findWorkload("cc-grid-inproc")
	b := &bench{wl: wl, sc: toyScale, epoch: time.Now()}
	b.g = wl.graph(b.sc, 1)
	b.refLabels = ref.ConnectedComponents(b.g)
	optimisticFail := endToEndVariants[3]
	if s := b.runJob(optimisticFail, 1, false); s.err != nil {
		t.Fatalf("sound job rejected: %v", s.err)
	}

	late := *b
	late.sc.ccFailAt = 10000 // the job converges long before
	if s := late.runJob(optimisticFail, 2, false); s.err == nil || !strings.Contains(s.err.Error(), "failures struck") {
		t.Errorf("a failure that never struck passed the gate: %v", s.err)
	}

	wrong := *b
	wrong.refLabels = ref.ConnectedComponents(b.g)
	wrong.refLabels[b.g.Vertices()[3]] = 99
	if s := wrong.runJob(endToEndVariants[1], 3, false); s.err == nil || !strings.Contains(s.err.Error(), "label") {
		t.Errorf("a wrong labelling passed the gate: %v", s.err)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	if code := run([]string{"-workload", "no-such"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("unknown workload: exit code %d, want 2", code)
	}
	if code := run([]string{"-compare", "only-one.jsonl"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("-compare with one file: exit code %d, want 2", code)
	}
}

// BENCHMARK.json is what the driver reads and -compare takes its bounds
// from; the program's own metric and workload lists must say the same.
func TestDeclarationMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, declared []metric, specs []metricSpec, bounded bool) {
		if len(declared) != len(specs) {
			t.Fatalf("%d %s metrics declared, program has %d", len(declared), kind, len(specs))
		}
		for i, m := range declared {
			if m.Name != specs[i].name || m.Unit != specs[i].unit {
				t.Errorf("%s metric %d is %s [%s], program has %s [%s]", kind, i, m.Name, m.Unit, specs[i].name, specs[i].unit)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s metric %s [%s]: name or unit outside the contract's alphabet", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || bounded && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end-to-end", decl.EndToEnd, endToEndSpecs, true)
	check("per-layer", decl.PerLayer, perLayerSpecs, false)
	if decl.EndToEnd[0].Name != "setup_s" || decl.EndToEnd[0].Unit != "s" || decl.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be declared with unit s, better lower: %+v", decl.EndToEnd[0])
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", decl.Paths)
	}
	if strings.Join(decl.Command, " ") != "go run ./benchmark" {
		t.Errorf("command = %v", decl.Command)
	}
}
