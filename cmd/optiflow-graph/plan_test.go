package main

import (
	"strings"
	"testing"
)

func TestRenderPlanAllNamesAllFormats(t *testing.T) {
	for _, name := range planNames() {
		for _, format := range []string{"explain", "dot"} {
			out, err := renderPlan(name, format, 2)
			if err != nil {
				t.Fatalf("renderPlan(%s, %s): %v", name, format, err)
			}
			if out == "" {
				t.Fatalf("renderPlan(%s, %s): empty output", name, format)
			}
			if format == "dot" && !strings.HasPrefix(out, "digraph") {
				t.Fatalf("renderPlan(%s, dot) is not a digraph:\n%s", name, out)
			}
		}
	}
}

func TestRenderPlanCarriesDiagnostics(t *testing.T) {
	// Step plans declare external compensation; the Info diagnostic must
	// surface in the rendered output so the tool is a lint viewer too.
	out, err := renderPlan("vertexcentric-step", "explain", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "comp-external") {
		t.Fatalf("explain output missing comp-external diagnostic:\n%s", out)
	}
}

func TestRenderPlanErrors(t *testing.T) {
	// cc-step, pagerank-step and cc-bulk-step left with the boxed runtime
	// they rendered.
	for _, name := range []string{"no-such-plan", "cc-step", "pagerank-step", "cc-bulk-step"} {
		if _, err := renderPlan(name, "explain", 2); err == nil {
			t.Fatalf("unknown plan name %q did not error", name)
		}
	}
	if _, err := renderPlan("cc-figure", "svg", 2); err == nil {
		t.Fatal("unknown format did not error")
	}
}
