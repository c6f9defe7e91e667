package deepvet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintFixture loads a fixture directory under a pretend repo-relative
// path and runs every rule that applies there, as Check would.
func lintFixture(t *testing.T, fixture, rel string) []Finding {
	t.Helper()
	l, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(filepath.Join("testdata", fixture), rel)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	var fs []Finding
	for _, a := range Analyses() {
		if a.Applies(rel) {
			fs = append(fs, a.Run([]*Package{p})...)
		}
	}
	return fs
}

func countRule(fs []Finding, rule string) int {
	n := 0
	for _, f := range fs {
		if f.Rule == rule {
			n++
		}
	}
	return n
}

func TestGoroutineRule(t *testing.T) {
	fs := lintFixture(t, "goroutine", "internal/iterate")
	if got := countRule(fs, "goroutine"); got != 2 {
		t.Fatalf("goroutine findings = %d, want 2:\n%s", got, dumpFindings(fs))
	}
	// The same file inside a spawn package is fine.
	for _, rel := range []string{"internal/exec", "internal/checkpoint", "internal/cluster/proc"} {
		if fs := lintFixture(t, "goroutine", rel); countRule(fs, "goroutine") != 0 {
			t.Fatalf("goroutine rule fired under %s:\n%s", rel, dumpFindings(fs))
		}
	}
}

func TestPanicPrefixRule(t *testing.T) {
	fs := lintFixture(t, "panicprefix", "internal/state")
	if got := countRule(fs, "panicprefix"); got != 2 {
		t.Fatalf("panicprefix findings = %d, want 2:\n%s", got, dumpFindings(fs))
	}
	for _, f := range fs {
		if !strings.Contains(f.Msg, `"state: "`) {
			t.Fatalf("finding does not name the wanted prefix: %v", f)
		}
	}
}

func TestDeterminismRule(t *testing.T) {
	fs := lintFixture(t, "determinism", "internal/recovery")
	if got := countRule(fs, "determinism"); got != 3 {
		t.Fatalf("determinism findings = %d, want 3 (import, Now, Since):\n%s", got, dumpFindings(fs))
	}
	// Outside the replay packages the same file is legal.
	if fs := lintFixture(t, "determinism", "internal/metrics"); countRule(fs, "determinism") != 0 {
		t.Fatalf("determinism rule fired outside replay packages:\n%s", dumpFindings(fs))
	}
}

func TestGlobalVarRule(t *testing.T) {
	fs := lintFixture(t, "globalvar", "internal/algo/pagerank")
	if got := countRule(fs, "globalvar"); got != 2 {
		t.Fatalf("globalvar findings = %d, want 2:\n%s", got, dumpFindings(fs))
	}
	if countContaining(fs, `"iterations"`) != 1 || countContaining(fs, `"callCount"`) != 1 {
		t.Fatalf("wrong vars flagged:\n%s", dumpFindings(fs))
	}
	if countContaining(fs, `"Inf"`) != 0 || countContaining(fs, `"damping"`) != 0 {
		t.Fatalf("read-only or shadowed var flagged:\n%s", dumpFindings(fs))
	}
	// Outside internal/algo the rule does not apply.
	if fs := lintFixture(t, "globalvar", "internal/graph"); countRule(fs, "globalvar") != 0 {
		t.Fatalf("globalvar rule fired outside internal/algo:\n%s", dumpFindings(fs))
	}
}

// TestTypedNamesFixture holds the cases a syntactic match on the
// spelling `time.Now` or on a literal panic argument misses.
func TestTypedNamesFixture(t *testing.T) {
	fs := lintFixture(t, "typednames", "internal/recovery")
	if len(fs) != 3 {
		t.Fatalf("typednames findings = %d, want 3:\n%s", len(fs), dumpFindings(fs))
	}
	for want, n := range map[string]int{"time.Now": 1, "time.Since": 1, `"negative epoch"`: 1} {
		if got := countContaining(fs, want); got != n {
			t.Fatalf("%s findings = %d, want %d:\n%s", want, got, n, dumpFindings(fs))
		}
	}
}

func TestCleanFixtureIsQuiet(t *testing.T) {
	for _, rel := range []string{"internal/recovery", "internal/algo/cc", "internal/checkpoint"} {
		if fs := lintFixture(t, "clean", rel); len(fs) != 0 {
			t.Fatalf("clean fixture produced findings under %s:\n%s", rel, dumpFindings(fs))
		}
	}
}

// writeTree creates root/rel/name with the given contents.
func writeTree(t *testing.T, root, rel, name string, data []byte) {
	t.Helper()
	dir := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestValidateAllowlists(t *testing.T) {
	// Against the real repo every listed package exists, and each list
	// is declared in the file its stale-entry findings point at.
	root := repoRoot(t)
	if fs := validateAllowlists(root); len(fs) != 0 {
		t.Fatalf("allowlists are stale against the repo:\n%s", dumpFindings(fs))
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	self, err := l.Load("internal/deepvet")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range allowlists() {
		obj := self.Types.Scope().Lookup(a.name)
		if obj == nil {
			t.Fatalf("allowlist %s is not a package-level declaration", a.name)
		}
		if got := filepath.Base(self.Fset.Position(obj.Pos()).Filename); got != a.file {
			t.Fatalf("allowlist %s is declared in %s, findings point at %s", a.name, got, a.file)
		}
	}

	// Against a synthetic root where only some packages exist, every
	// missing entry is flagged — at the file declaring its list.
	tmp := t.TempDir()
	for _, rel := range []string{"internal/exec", "internal/recovery"} {
		writeTree(t, tmp, rel, "p.go", []byte("package p\n"))
	}
	fs := validateAllowlists(tmp)
	want := map[string]string{
		"internal/checkpoint":   "rules.go",
		"internal/cluster/proc": "rules.go",
		"internal/iterate":      "rules.go",
		"internal/supervise":    "rules.go",
		"internal/cluster":      "lockorder.go",
	}
	for entry, file := range want {
		found := false
		for _, f := range fs {
			if f.Rule == "allowlist" && strings.Contains(f.Msg, `"`+entry+`"`) && filepath.Base(f.Pos.Filename) == file {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing package %s not flagged at %s:\n%s", entry, file, dumpFindings(fs))
		}
	}
	for _, f := range fs {
		if strings.Contains(f.Msg, `"internal/exec"`) || strings.Contains(f.Msg, `"internal/recovery"`) {
			t.Fatalf("existing package flagged as stale: %v", f)
		}
	}
}

func TestFindingsAreDeterministicallyOrdered(t *testing.T) {
	// A synthetic module holding the seeded fixtures at the paths their
	// rules apply to: Check must find exactly their violations, through
	// its own package walk and rule scoping, in the same sorted order
	// every run.
	root := t.TempDir()
	writeTree(t, root, "", "go.mod", []byte("module fixture\n"))
	for fixture, rel := range map[string]string{
		"goroutine":   "internal/iterate",
		"panicprefix": "internal/state",
		"determinism": "internal/recovery",
		"globalvar":   "internal/algo/pagerank",
		"typednames":  "internal/supervise",
	} {
		data, err := os.ReadFile(filepath.Join("testdata", fixture, "bad.go"))
		if err != nil {
			t.Fatal(err)
		}
		writeTree(t, root, rel, "bad.go", data)
	}
	first, err := Check(root, []string{"./..."}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for rule, n := range map[string]int{"goroutine": 2, "panicprefix": 3, "determinism": 5, "globalvar": 2} {
		if got := countRule(first, rule); got != n {
			t.Fatalf("%s findings = %d, want %d:\n%s", rule, got, n, dumpFindings(first))
		}
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1].Pos, first[i].Pos
		if a.Filename > b.Filename || a.Filename == b.Filename && a.Line > b.Line {
			t.Fatalf("findings out of order at %d:\n%s", i, dumpFindings(first))
		}
	}
	for i := 0; i < 3; i++ {
		again, err := Check(root, []string{"./..."}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if dumpFindings(again) != dumpFindings(first) {
			t.Fatalf("order changed:\n%s\nvs\n%s", dumpFindings(again), dumpFindings(first))
		}
	}
}
