package benchart

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: optiflow
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngine_ShuffleReduce 	      10	  13799815 ns/op	  57.97 MB/s	 8174523 B/op	   15561 allocs/op
BenchmarkEngine_HashJoin      	      10	  28114020 ns/op	18449260 B/op	   60090 allocs/op
BenchmarkGraphPartition-8     	986433382	         1.216 ns/op
PASS
ok  	optiflow	4.385s
`

func TestParse(t *testing.T) {
	results, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(results), results)
	}
	// Sorted by name.
	if results[0].Name != "BenchmarkEngine_HashJoin" {
		t.Fatalf("first result = %q, want HashJoin", results[0].Name)
	}
	hj := results[0]
	if hj.Runs != 10 || hj.NsPerOp != 28114020 || hj.BytesPerOp != 18449260 || hj.AllocsPerOp != 60090 {
		t.Fatalf("HashJoin parsed wrong: %+v", hj)
	}
	// The MB/s column from b.SetBytes must not shift later columns.
	sr := results[1]
	if sr.Name != "BenchmarkEngine_ShuffleReduce" || sr.BytesPerOp != 8174523 || sr.AllocsPerOp != 15561 {
		t.Fatalf("ShuffleReduce parsed wrong: %+v", sr)
	}
	// A benchmark without -benchmem columns reports -1 for both.
	gp := results[2]
	if gp.Name != "BenchmarkGraphPartition-8" || gp.BytesPerOp != -1 || gp.AllocsPerOp != -1 {
		t.Fatalf("GraphPartition parsed wrong: %+v", gp)
	}
	if gp.NsPerOp != 1.216 {
		t.Fatalf("GraphPartition ns/op = %v, want 1.216", gp.NsPerOp)
	}
}

func TestParseAveragesRepeatedRuns(t *testing.T) {
	out := `BenchmarkX 	 10	 100 ns/op	 200 B/op	 30 allocs/op
BenchmarkX 	 10	 300 ns/op	 400 B/op	 50 allocs/op
`
	results, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("parsed %d results, want 1", len(results))
	}
	r := results[0]
	if r.NsPerOp != 200 || r.BytesPerOp != 300 || r.AllocsPerOp != 40 || r.Runs != 10 {
		t.Fatalf("averaging wrong: %+v", r)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	out := "Benchmark_NoNumbers abc def\nnot a benchmark\nBenchmarkOnlyName\n"
	results, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("expected no results, got %+v", results)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_TEST.json")
	art := Artifact{
		Pkg:       "optiflow",
		Bench:     "BenchmarkEngine",
		Benchtime: "10x",
		Results: []Result{
			{Name: "BenchmarkEngine_HashJoin", Runs: 10, NsPerOp: 123, BytesPerOp: 456, AllocsPerOp: 7},
		},
	}
	if err := WriteJSON(path, art); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("artifact should end with a newline")
	}
	var got Artifact
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(got.Results) != 1 || got.Results[0] != art.Results[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestRatio(t *testing.T) {
	results := []Result{
		{Name: "BenchmarkCheckpointBarrier_CC_Sync-8", NsPerOp: 5000000},
		{Name: "BenchmarkCheckpointBarrier_CC_Async-8", NsPerOp: 10000},
		{Name: "BenchmarkZero", NsPerOp: 0},
	}
	r, ok := Ratio(results, "BenchmarkCheckpointBarrier_CC_Sync", "BenchmarkCheckpointBarrier_CC_Async")
	if !ok || r != 500 {
		t.Fatalf("ratio = %v, %v", r, ok)
	}
	// Exact names (no GOMAXPROCS suffix) also match.
	if _, ok := Ratio(results, "BenchmarkCheckpointBarrier_CC_Sync-8", "BenchmarkCheckpointBarrier_CC_Async-8"); !ok {
		t.Fatal("suffixed lookup failed")
	}
	if _, ok := Ratio(results, "BenchmarkMissing", "BenchmarkCheckpointBarrier_CC_Async"); ok {
		t.Fatal("missing numerator should not resolve")
	}
	if _, ok := Ratio(results, "BenchmarkCheckpointBarrier_CC_Sync", "BenchmarkZero"); ok {
		t.Fatal("zero denominator should not resolve")
	}
}
