package demoapp

import (
	"strings"
	"testing"
)

func TestCCRunProducesFramesAndStats(t *testing.T) {
	out, err := Run(Config{Mode: ModeCC, Failures: map[int][]int{2: {1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Frames) < 4 {
		t.Fatalf("only %d frames", len(out.Frames))
	}
	// Frame 0 is the initial state, before any superstep.
	if out.Frames[0].Tick != -1 || !strings.Contains(out.Frames[0].Graph, "initial state") {
		t.Fatalf("frame 0 = %+v", out.Frames[0])
	}
	if !strings.Contains(out.Summary, "CORRECT") {
		t.Fatalf("summary = %q", out.Summary)
	}
	var failureFrame *Frame
	for i := range out.Frames {
		if out.Frames[i].Failure != "" {
			failureFrame = &out.Frames[i]
		}
	}
	if failureFrame == nil {
		t.Fatal("no failure frame recorded")
	}
	if !strings.Contains(failureFrame.Failure, "compensated") {
		t.Fatalf("failure note = %q", failureFrame.Failure)
	}
	if !strings.Contains(failureFrame.Graph, "✗") {
		t.Fatal("lost vertices not highlighted in failure frame")
	}
	if out.Stats.Series("converged-vertices") == nil || out.Stats.Series("messages") == nil {
		t.Fatal("stat series missing")
	}
	if got := out.Stats.FailureTicks(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("failure ticks = %v", got)
	}
}

func TestPRRunProducesL1Series(t *testing.T) {
	out, err := Run(Config{Mode: ModePageRank, Failures: map[int][]int{4: {1}}, PRIterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	l1 := out.Stats.Series("l1-delta")
	if len(l1) != 12 {
		t.Fatalf("l1 series has %d points", len(l1))
	}
	if l1[5] <= l1[4] {
		t.Fatalf("expected L1 spike after failure: %v", l1[3:7])
	}
	if !strings.Contains(out.Summary, "CORRECT") {
		t.Fatalf("summary = %q", out.Summary)
	}
}

func TestLargeGraphSkipsGraphFrames(t *testing.T) {
	out, err := Run(Config{Mode: ModeCC, Large: true, LargeSize: 1500})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range out.Frames {
		if strings.Contains(f.Graph, "[") && strings.Contains(f.Graph, "·") {
			t.Fatal("large graph should not render graph frames")
		}
	}
	if !strings.Contains(out.Summary, "CORRECT") {
		t.Fatalf("summary = %q", out.Summary)
	}
}

func TestPlotsRender(t *testing.T) {
	out, err := Run(Config{Mode: ModeCC, Failures: map[int][]int{1: {0}}})
	if err != nil {
		t.Fatal(err)
	}
	plots := out.Plots()
	if !strings.Contains(plots, "vertices converged") || !strings.Contains(plots, "messages") {
		t.Fatalf("plots missing panes:\n%s", plots)
	}
	if !strings.Contains(plots, "!") {
		t.Fatal("failure marker missing from plots")
	}

	pr, err := Run(Config{Mode: ModePageRank, PRIterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pr.Plots(), "L1 norm") {
		t.Fatal("PR plots missing L1 pane")
	}
}

func TestShellScriptedSession(t *testing.T) {
	var out strings.Builder
	sh := NewShell(strings.NewReader(""), &out, false)
	cmds := []string{
		"help", "status", "cc", "fail 3 1", "failures", "run", "step", "back",
		"plots", "explain", "pagerank", "explain", "small", "large 1200", "status",
	}
	for _, c := range cmds {
		if !sh.Execute(c) {
			t.Fatalf("command %q quit the shell", c)
		}
	}
	if sh.Execute("quit") {
		t.Fatal("quit did not quit")
	}
	text := out.String()
	for _, want := range []string{
		"commands (the GUI's tabs and buttons)",
		"scheduled: worker 1 fails in iteration 3",
		"iteration 3",
		"CORRECT",
		"vertices converged",
		"fix-components",
		"fix-ranks",
		"Twitter-like graph, 1200 vertices",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("session output missing %q", want)
		}
	}
}

func TestShellRejectsBadInput(t *testing.T) {
	var out strings.Builder
	sh := NewShell(strings.NewReader(""), &out, false)
	for _, c := range []string{"fail", "fail x y", "fail 0 0", "bogus-command"} {
		if !sh.Execute(c) {
			t.Fatalf("%q quit the shell", c)
		}
	}
	text := out.String()
	if !strings.Contains(text, "usage: fail") || !strings.Contains(text, "unknown command") {
		t.Fatalf("error guidance missing:\n%s", text)
	}
}

func TestShellStepAndBackBounds(t *testing.T) {
	var out strings.Builder
	sh := NewShell(strings.NewReader(""), &out, false)
	sh.Execute("cc")
	sh.Execute("run")
	sh.Execute("back") // already at frame 0 after run rewinds cursor
	for i := 0; i < 100; i++ {
		sh.Execute("step")
	}
	if !strings.Contains(out.String(), "already at the last iteration") {
		t.Fatal("step bound missing")
	}
}

func TestModeString(t *testing.T) {
	if ModeCC.String() != "connected-components" || ModePageRank.String() != "pagerank" {
		t.Fatal("mode names changed")
	}
}

func TestANSIToHTML(t *testing.T) {
	in := "plain \x1b[38;5;196mred\x1b[0m and \x1b[1mbold\x1b[0m <escaped>"
	out := ansiToHTML(in)
	for _, want := range []string{
		`<span style="color:#ff0000">red</span>`,
		`<span style="font-weight:bold">bold</span>`,
		"&lt;escaped&gt;",
		"plain ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("ansiToHTML missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b") {
		t.Fatal("escape codes leaked")
	}
	// Unclosed span at end of string gets closed.
	if got := ansiToHTML("\x1b[1mforever"); !strings.HasSuffix(got, "</span>") {
		t.Fatalf("unclosed span: %q", got)
	}
}

func TestXterm256Mapping(t *testing.T) {
	cases := map[string]string{
		"0":   "#000000",
		"15":  "#ffffff",
		"16":  "#000000", // cube origin
		"196": "#ff0000", // pure red in the cube
		"46":  "#00ff00",
		"21":  "#0000ff",
		"232": "#080808", // first gray
		"255": "#eeeeee", // last gray
		"bad": "#ffffff",
	}
	for idx, want := range cases {
		if got := xterm256(idx); got != want {
			t.Fatalf("xterm256(%s) = %s, want %s", idx, got, want)
		}
	}
}

func TestHTMLReport(t *testing.T) {
	out, err := Run(Config{Mode: ModeCC, Failures: map[int][]int{2: {1}}, Color: true})
	if err != nil {
		t.Fatal(err)
	}
	html := out.HTMLReport()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"connected-components",
		"<svg", "</svg>",
		"class=\"failure\"",
		"class=\"summary\"",
		"CORRECT",
	} {
		if !strings.Contains(html, want) {
			t.Fatalf("HTML report missing %q", want)
		}
	}
	if strings.Contains(html, "\x1b") {
		t.Fatal("ANSI escapes leaked into HTML")
	}
	if strings.Count(html, "<svg") != 2 {
		t.Fatal("want both statistics panes as SVG")
	}
}

// TestFaultMatrix is the CI fault-injection smoke matrix: both demo
// algorithms under every recovery policy with a scripted mid-step
// failure (plus a boundary failure), run under -race in CI. The three
// recovering policies must converge to the correct result and render
// the aborted tick; the "none" policy must fail loudly, not hang or
// corrupt state.
func TestFaultMatrix(t *testing.T) {
	for _, mode := range []Mode{ModeCC, ModePageRank} {
		for _, policy := range []string{"optimistic", "checkpoint", "async-checkpoint", "restart", "none"} {
			t.Run(mode.String()+"/"+policy, func(t *testing.T) {
				// The boundary failure strikes at superstep 0 so it fires
				// under every policy (the small graph can converge before a
				// late superstep is ever reached after a rollback).
				cfg := Config{
					Mode:                mode,
					Policy:              policy,
					Failures:            map[int][]int{0: {0}},
					MidStepFailures:     map[int][]int{2: {1}},
					MidStepAfterRecords: 4,
					NewCluster:          testClusterFactory(t),
				}
				out, err := Run(cfg)
				if policy == "none" {
					if err == nil {
						t.Fatal("policy none should abort on the first failure")
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(out.Summary, "CORRECT") {
					t.Fatalf("summary = %q", out.Summary)
				}
				if got := out.Stats.AbortedTicks(); len(got) != 1 {
					t.Fatalf("aborted ticks = %v, want exactly one mid-step abort", got)
				}
				if len(out.Stats.FailureTicks()) != 2 {
					t.Fatalf("failure ticks = %v, want 2", out.Stats.FailureTicks())
				}
				aborted := 0
				for _, f := range out.Frames {
					if f.Aborted {
						aborted++
						if !strings.Contains(f.Failure, "mid-iteration abort") {
							t.Fatalf("aborted frame failure text = %q", f.Failure)
						}
						if !strings.Contains(f.Status, "aborted mid-iteration") {
							t.Fatalf("aborted frame status = %q", f.Status)
						}
					}
				}
				if aborted != 1 {
					t.Fatalf("aborted frames = %d, want 1", aborted)
				}
			})
		}
	}
}

// TestFaultMatrixDuringRecovery adds the during-recovery cell: a second
// worker dies while the optimistic compensation for the first runs, and
// the supervisor folds it into the same recovery. Under -cluster=proc the
// deaths are SIGKILLs; the demo's jobs keep their state in the driver, so
// the cell where the worker dies under a compensate request is the proc
// suite's (TestWorkerDyingUnderCompensateIsFolded), not this one.
func TestFaultMatrixDuringRecovery(t *testing.T) {
	for _, mode := range []Mode{ModeCC, ModePageRank} {
		t.Run(mode.String(), func(t *testing.T) {
			out, err := Run(Config{
				Mode:                   mode,
				Policy:                 "optimistic",
				Supervised:             true,
				Spares:                 -1,
				Failures:               map[int][]int{0: {0}},
				DuringRecoveryFailures: map[int][]int{0: {1}},
				NewCluster:             testClusterFactory(t),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.Summary, "CORRECT") {
				t.Fatalf("summary = %q", out.Summary)
			}
			folded := false
			for _, f := range out.Frames {
				folded = folded || strings.Contains(f.Failure, "during recovery")
			}
			if ticks := out.Stats.FailureTicks(); len(ticks) != 1 || !folded {
				t.Fatalf("failure ticks = %v, folded = %v: want one tick whose recovery absorbed a second failure", ticks, folded)
			}
		})
	}
}

func TestHTMLReportMarksAbortedFrames(t *testing.T) {
	out, err := Run(Config{
		Mode:                ModeCC,
		MidStepFailures:     map[int][]int{1: {1}},
		MidStepAfterRecords: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	html := out.HTMLReport()
	if !strings.Contains(html, "⛔") {
		t.Fatal("aborted frame not marked in HTML report")
	}
	if !strings.Contains(html, "optimistic recovery") {
		t.Fatal("policy name missing from HTML report header")
	}
}

func TestShellMidfailAndPolicyCommands(t *testing.T) {
	var sb strings.Builder
	s := NewShell(strings.NewReader(""), &sb, false)
	if !s.Execute("policy checkpoint") {
		t.Fatal("policy command quit the shell")
	}
	if !s.Execute("midfail 2 1") {
		t.Fatal("midfail command quit the shell")
	}
	if !s.Execute("failures") || !s.Execute("run") {
		t.Fatal("run quit the shell")
	}
	outStr := sb.String()
	if !strings.Contains(outStr, "recovery policy: checkpoint") {
		t.Fatalf("policy feedback missing: %q", outStr)
	}
	if !strings.Contains(outStr, "mid-step") {
		t.Fatalf("midfail schedule missing from failures listing: %q", outStr)
	}
	if !strings.Contains(outStr, "⛔") {
		t.Fatalf("aborted frame marker missing from playback: %q", outStr)
	}
	if !strings.Contains(outStr, "CORRECT") {
		t.Fatalf("run did not report a correct result: %q", outStr)
	}
}

func TestShellSparesAndRecfailCommands(t *testing.T) {
	var sb strings.Builder
	s := NewShell(strings.NewReader(""), &sb, false)
	for _, cmd := range []string{"policy none", "spares 0", "fail 3 1", "recfail 3 2", "status", "failures", "run"} {
		if !s.Execute(cmd) {
			t.Fatalf("command %q quit the shell", cmd)
		}
	}
	outStr := sb.String()
	if !strings.Contains(outStr, "supervision: on, 0 spare worker(s)") {
		t.Fatalf("spares feedback missing: %q", outStr)
	}
	if !strings.Contains(outStr, "supervision=on (spares=0)") {
		t.Fatalf("status line missing supervision: %q", outStr)
	}
	if !strings.Contains(outStr, "during recovery") {
		t.Fatalf("recfail schedule missing from failures listing: %q", outStr)
	}
	// Policy "none" under supervision escalates instead of aborting, and
	// the recovery effort shows up in the frame status line.
	if !strings.Contains(outStr, "escalation") {
		t.Fatalf("escalation missing from playback: %q", outStr)
	}
	if !strings.Contains(outStr, "degraded") {
		t.Fatalf("degraded-mode note missing from playback: %q", outStr)
	}
	if !strings.Contains(outStr, "CORRECT") {
		t.Fatalf("run did not report a correct result: %q", outStr)
	}
	// spares off returns to the legacy path, under which policy none
	// aborts the run on failure.
	if !s.Execute("spares off") || !s.Execute("run") {
		t.Fatal("post-off commands quit the shell")
	}
	if !strings.Contains(sb.String(), "error:") {
		t.Fatalf("unsupervised none policy should abort: %q", sb.String())
	}
}
