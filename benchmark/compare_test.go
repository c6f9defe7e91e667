package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testDeclaration = `{"end_to_end": [
	{"name": "job_s", "unit": "s", "better": "lower", "bound": 0.1},
	{"name": "msgs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`

// ledgerOf writes one entry per (job_s, msgs_per_s) pair, all of one
// workload and seed.
func ledgerOf(t *testing.T, dir, name string, counts exactCounts, runs ...[2]float64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	for _, r := range runs {
		e := entry{
			Header: header{Seed: 1}, Workload: "w", Correct: true, Attempted: 10,
			EndToEnd: map[string]summary{
				"job_s":      {Value: r[0], Q1: r[0], Q3: r[0], N: 5},
				"msgs_per_s": {Value: r[1], Q1: r[1], Q3: r[1], N: 5},
			},
			Counts: map[string]exactCounts{"optimistic": counts},
		}
		if err := appendEntry(path, e); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCompareLedgers(t *testing.T) {
	dir := t.TempDir()
	decl := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(decl, []byte(testDeclaration), 0o644); err != nil {
		t.Fatal(err)
	}
	counts := exactCounts{Supersteps: 5, Ticks: 5, Messages: 100, Jobs: 3, Repeat: true}
	steady := [][2]float64{{1.00, 100}, {1.01, 101}, {0.99, 99}, {1.00, 100}}
	base := ledgerOf(t, dir, "base.jsonl", counts, steady...)

	for _, tc := range []struct {
		name    string
		counts  exactCounts
		runs    [][2]float64
		notOK   bool
		mention []string
	}{
		{"same", counts, steady, false, []string{"job_s", "msgs_per_s", " ok", "exact counts repeat"}},
		{"slower", counts, [][2]float64{{1.20, 100}, {1.21, 101}, {1.19, 99}, {1.20, 100}}, true, []string{"worse"}},
		{"noisy", counts, [][2]float64{{0.7, 100}, {1.3, 101}, {0.8, 99}, {1.2, 100}}, true, []string{"unresolved"}},
		{"counts moved", exactCounts{Supersteps: 6, Ticks: 6, Messages: 120, Jobs: 3, Repeat: true}, steady, true,
			[]string{"exact counts differ"}},
	} {
		other := ledgerOf(t, dir, strings.ReplaceAll(tc.name, " ", "-")+".jsonl", tc.counts, tc.runs...)
		var out strings.Builder
		notOK, err := compareLedgers(&out, decl, base, other)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if notOK != tc.notOK {
			t.Errorf("%s: notOK = %v, want %v\n%s", tc.name, notOK, tc.notOK, out.String())
		}
		for _, want := range tc.mention {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, want, out.String())
			}
		}
	}
}

func TestCompareRejectsDisjointLedgers(t *testing.T) {
	dir := t.TempDir()
	decl := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(decl, []byte(testDeclaration), 0o644)
	a := ledgerOf(t, dir, "a.jsonl", exactCounts{Repeat: true}, [2]float64{1, 1})
	if _, err := compareLedgers(&strings.Builder{}, decl, a, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("comparing against a missing ledger succeeded")
	}
}

// A single run on a side is judged by its own samples' quartiles.
func TestAcrossFallsBackToARunsOwnSamples(t *testing.T) {
	one := []entry{{EndToEnd: map[string]summary{"job_s": {Value: 2, Q1: 1, Q3: 3, N: 9}}}}
	if got := across(one, "job_s"); got.Q1 != 1 || got.Q3 != 3 || got.N != 9 {
		t.Errorf("across(one run) = %+v", got)
	}
	two := append(one, entry{EndToEnd: map[string]summary{"job_s": {Value: 4, Q1: 4, Q3: 4, N: 9}}})
	if got := across(two, "job_s"); got.Value != 3 || got.N != 2 {
		t.Errorf("across(two runs) = %+v", got)
	}
}
