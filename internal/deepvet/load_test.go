package deepvet

import (
	"path/filepath"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestLoaderTypechecksModulePackages(t *testing.T) {
	l, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if l.Module() != "optiflow" {
		t.Fatalf("module = %q, want optiflow", l.Module())
	}
	p, err := l.Load("internal/state")
	if err != nil {
		t.Fatal(err)
	}
	if p.Rel != "internal/state" || p.Types == nil || len(p.Files) == 0 {
		t.Fatalf("incomplete package: rel=%q types=%v files=%d", p.Rel, p.Types, len(p.Files))
	}
	if p.Types.Path() != "optiflow/internal/state" {
		t.Fatalf("import path = %q", p.Types.Path())
	}
	if len(p.Info.Defs) == 0 || len(p.Info.Uses) == 0 {
		t.Fatal("type info not populated")
	}
	// Loads are memoized: the same package pointer comes back.
	again, err := l.Load("internal/state")
	if err != nil {
		t.Fatal(err)
	}
	if again != p {
		t.Fatal("Load is not memoized")
	}
}

func TestLoaderLoadDirFixture(t *testing.T) {
	l, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(filepath.Join("testdata", "lockorder"), "internal/cluster")
	if err != nil {
		t.Fatal(err)
	}
	if p.Rel != "internal/cluster" {
		t.Fatalf("fixture rel = %q", p.Rel)
	}
	if p.Path != "fixture/internal/cluster" {
		t.Fatalf("fixture path = %q", p.Path)
	}
	again, err := l.LoadDir(filepath.Join("testdata", "lockorder"), "internal/cluster")
	if err != nil {
		t.Fatal(err)
	}
	if again != p {
		t.Fatal("LoadDir is not memoized")
	}
}
