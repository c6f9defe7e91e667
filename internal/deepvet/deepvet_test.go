package deepvet

import (
	"path/filepath"
	"strings"
	"testing"
)

// runFixture loads a seeded-violation fixture directory under a pretend
// repo-relative path and runs one typed analysis over it. These tests
// are the non-vacuity proof CI relies on: every rule must keep
// detecting its seeded violations.
func runFixture(t *testing.T, analysis, fixture, rel string) []Finding {
	t.Helper()
	l, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(filepath.Join("testdata", fixture), rel)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	a := analysisByName(t, analysis)
	if !a.Applies(rel) {
		t.Fatalf("analysis %s does not apply to %s", analysis, rel)
	}
	return a.Run([]*Package{p})
}

func analysisByName(t *testing.T, name string) *Analysis {
	t.Helper()
	for _, a := range Analyses() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analysis named %q", name)
	return nil
}

// countContaining counts findings whose message contains sub.
func countContaining(fs []Finding, sub string) int {
	n := 0
	for _, f := range fs {
		if strings.Contains(f.Msg, sub) {
			n++
		}
	}
	return n
}

func dumpFindings(fs []Finding) string {
	msgs := make([]string, len(fs))
	for i, f := range fs {
		msgs[i] = f.String()
	}
	return strings.Join(msgs, "\n")
}

func TestPoolEscapeViewFixture(t *testing.T) {
	fs := runFixture(t, "poolescape", "poolescape", "internal/udfs")
	if len(fs) != 9 {
		t.Fatalf("poolescape view findings = %d, want 9:\n%s", len(fs), dumpFindings(fs))
	}
	wantKinds := map[string]int{
		"via return":                          2, // direct return + return of a laundered alias
		"via channel send":                    1,
		"via store to non-local memory":       1,
		"via store to package-level variable": 1,
		"via composite literal":               1,
		"via append as a single element":      1,
		"via call argument":                   1,
		"via closure capture":                 1,
	}
	for kind, want := range wantKinds {
		if got := countContaining(fs, kind); got != want {
			t.Fatalf("%q findings = %d, want %d:\n%s", kind, got, want, dumpFindings(fs))
		}
	}
	for _, f := range fs {
		if f.Rule != "poolescape" {
			t.Fatalf("wrong rule on finding: %v", f)
		}
	}
}

func TestPoolEscapeColViewFixture(t *testing.T) {
	fs := runFixture(t, "poolescape", "poolescape_col", "internal/udfs")
	if len(fs) != 9 {
		t.Fatalf("poolescape columnar view findings = %d, want 9:\n%s", len(fs), dumpFindings(fs))
	}
	wantKinds := map[string]int{
		"via return":                          2, // direct return + return of a laundered alias
		"via channel send":                    1,
		"via store to non-local memory":       1,
		"via store to package-level variable": 1,
		"via composite literal":               1,
		"via append as a single element":      1,
		"via call argument":                   1,
		"via closure capture":                 1,
	}
	for kind, want := range wantKinds {
		if got := countContaining(fs, kind); got != want {
			t.Fatalf("%q findings = %d, want %d:\n%s", kind, got, want, dumpFindings(fs))
		}
	}
	// Every finding names the column view class, not []any: the fixture
	// imports the real exec types, so this also proves the analysis
	// recognizes the engine's own declarations (including generic
	// ValCol instantiations).
	for _, f := range fs {
		if f.Rule != "poolescape" {
			t.Fatalf("wrong rule on finding: %v", f)
		}
		if !strings.Contains(f.Msg, "column view") {
			t.Fatalf("finding does not name the column view class: %v", f)
		}
		if strings.Contains(f.Msg, "[]any") {
			t.Fatalf("columnar finding misclassified as []any: %v", f)
		}
	}
	if got := countContaining(fs, "KeyCol column view"); got != 6 {
		t.Fatalf("KeyCol findings = %d, want 6:\n%s", got, dumpFindings(fs))
	}
	if got := countContaining(fs, "ValCol column view"); got != 3 {
		t.Fatalf("ValCol findings = %d, want 3 (send, composite literal, capture):\n%s", got, dumpFindings(fs))
	}
}

func TestPoolEscapeColExecFixture(t *testing.T) {
	fs := runFixture(t, "poolescape", "poolescape_colexec", "internal/exec")
	if len(fs) != 6 {
		t.Fatalf("poolescape columnar exec findings = %d, want 6:\n%s", len(fs), dumpFindings(fs))
	}
	if got := countContaining(fs, "used after putBatch/send"); got != 4 {
		t.Fatalf("use-after-recycle findings = %d, want 4 (direct, after send, conditional, lent after recycle):\n%s", got, dumpFindings(fs))
	}
	if got := countContaining(fs, "package-level variable"); got != 1 {
		t.Fatalf("package-level store findings = %d, want 1:\n%s", got, dumpFindings(fs))
	}
	if got := countContaining(fs, "exported function"); got != 1 {
		t.Fatalf("exported-return findings = %d, want 1:\n%s", got, dumpFindings(fs))
	}
	// The direct-escape findings name the columnar batch class.
	if got := countContaining(fs, "*ColBatch"); got != 2 {
		t.Fatalf("*ColBatch findings = %d, want 2 (store + return):\n%s", got, dumpFindings(fs))
	}
}

func TestPoolEscapeExecFixture(t *testing.T) {
	fs := runFixture(t, "poolescape", "poolescape_exec", "internal/exec")
	if len(fs) != 5 {
		t.Fatalf("poolescape exec findings = %d, want 5:\n%s", len(fs), dumpFindings(fs))
	}
	if got := countContaining(fs, "used after putBatch/send"); got != 3 {
		t.Fatalf("use-after-recycle findings = %d, want 3 (direct, after send, conditional):\n%s", got, dumpFindings(fs))
	}
	if got := countContaining(fs, "package-level variable"); got != 1 {
		t.Fatalf("package-level store findings = %d, want 1:\n%s", got, dumpFindings(fs))
	}
	if got := countContaining(fs, "exported function"); got != 1 {
		t.Fatalf("exported-return findings = %d, want 1:\n%s", got, dumpFindings(fs))
	}
}

func TestCancellationFixture(t *testing.T) {
	fs := runFixture(t, "cancellation", "cancellation", "internal/checkpoint")
	if len(fs) != 4 {
		t.Fatalf("cancellation findings = %d, want 4:\n%s", len(fs), dumpFindings(fs))
	}
	// Two receives: the inline one and the generic method's, reached
	// through an instantiated receiver — whose range over a field its
	// sibling method closes must stay clean.
	for want, n := range map[string]int{"channel receive": 2, "range over channel": 1, "unbuffered channel send": 1} {
		if got := countContaining(fs, want); got != n {
			t.Fatalf("%q findings = %d, want %d:\n%s", want, got, n, dumpFindings(fs))
		}
	}
	// Every finding names the spawn site so the leak is traceable to its
	// go statement — including the transitive one through bareRecvLoop.
	for _, f := range fs {
		if !strings.Contains(f.Msg, "spawned at") {
			t.Fatalf("finding does not name its spawn site: %v", f)
		}
	}
}

func TestCancellationNetFixture(t *testing.T) {
	fs := runFixture(t, "cancellation", "cancellation_net", "internal/cluster/proc")
	if len(fs) != 3 {
		t.Fatalf("cancellation_net findings = %d, want 3:\n%s", len(fs), dumpFindings(fs))
	}
	for _, want := range []string{"channel receive", "range over channel", "unbuffered channel send"} {
		if got := countContaining(fs, want); got != 1 {
			t.Fatalf("%q findings = %d, want 1:\n%s", want, got, dumpFindings(fs))
		}
	}
	// fanInClean's results channel is made buffered in the spawning
	// function, not the goroutine literal — the enclosing-scope fallback
	// must accept it.
	for _, f := range fs {
		if strings.Contains(f.Msg, "fanIn") {
			t.Fatalf("fan-in buffered capture flagged:\n%s", dumpFindings(fs))
		}
	}
}

func TestLockOrderFixture(t *testing.T) {
	fs := runFixture(t, "lockorder", "lockorder", "internal/cluster")
	if len(fs) != 5 {
		t.Fatalf("lockorder findings = %d, want 5:\n%s", len(fs), dumpFindings(fs))
	}
	cases := []string{
		"lock acquisition cycle",
		"self-deadlock",
		"channel send while holding",
		"call to helperBlocks (which may block on a channel)",
		"blocking select while holding",
	}
	for _, want := range cases {
		if got := countContaining(fs, want); got != 1 {
			t.Fatalf("%q findings = %d, want 1:\n%s", want, got, dumpFindings(fs))
		}
	}
	// The cycle names both mutexes by their field homes.
	for _, f := range fs {
		if strings.Contains(f.Msg, "lock acquisition cycle") {
			if !strings.Contains(f.Msg, "fixture.A.mu") || !strings.Contains(f.Msg, "fixture.B.mu") {
				t.Fatalf("cycle does not name both mutexes: %v", f)
			}
		}
	}
}

// ---- registry and Check plumbing ----

func TestRulesCatalogue(t *testing.T) {
	rules := Rules()
	if len(rules) != 8 {
		t.Fatalf("catalogue has %d rules, want 8", len(rules))
	}
	names := map[string]bool{}
	for _, r := range rules {
		if names[r.Name] {
			t.Fatalf("duplicate rule name %q", r.Name)
		}
		names[r.Name] = true
		if r.Doc == "" {
			t.Fatalf("rule %q has no doc", r.Name)
		}
	}
	for _, want := range []string{"goroutine", "panicprefix", "determinism", "globalvar", "allowlist", "poolescape", "cancellation", "lockorder"} {
		if !names[want] {
			t.Fatalf("catalogue missing rule %q", want)
		}
	}
}

func TestCheckRejectsUnknownRule(t *testing.T) {
	_, err := Check(repoRoot(t), []string{"./internal/state"}, Options{Rules: []string{"nope"}})
	if err == nil || !strings.Contains(err.Error(), `unknown rule "nope"`) {
		t.Fatalf("expected unknown-rule error, got %v", err)
	}
}

func TestCheckRuleFilter(t *testing.T) {
	// A single-rule run over a single package must come back clean and
	// must not error on a partial package set.
	fs, err := Check(repoRoot(t), []string{"./internal/state"}, Options{Rules: []string{"panicprefix"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("panicprefix over internal/state found %d violations:\n%s", len(fs), dumpFindings(fs))
	}
}

// TestRepositoryIsClean is the CI gate: the run of every rule over the
// repo — exactly what `go run ./cmd/optiflow-vet ./...` does — must be
// free of findings, so every seeded-fixture test above proves a rule
// that is actually enforceable on main.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo type-check is slow; skipped with -short")
	}
	fs, err := Check(repoRoot(t), []string{"./..."}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("repository has %d deepvet finding(s):\n%s", len(fs), dumpFindings(fs))
	}
}
