package exec

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"optiflow/internal/dataflow"
)

// collector is a concurrency-safe sink for test plans.
type collector struct {
	mu   sync.Mutex
	recs []any
}

func (c *collector) sink(_ int, rec any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, rec)
	return nil
}

func (c *collector) uints() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, len(c.recs))
	for i, r := range c.recs {
		out[i] = r.(uint64)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func rangeSource(n int) dataflow.SourceFunc {
	return func(part, nparts int, emit dataflow.Emit) error {
		for i := part; i < n; i += nparts {
			emit(uint64(i))
		}
		return nil
	}
}

func identKey(r any) uint64 { return r.(uint64) }

func runPlan(t *testing.T, parallelism int, build func(p *dataflow.Plan)) *Stats {
	t.Helper()
	plan := dataflow.NewPlan("test")
	build(plan)
	stats, err := (&Engine{Parallelism: parallelism, BatchSize: 4}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestMapFilterPipeline(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		col := &collector{}
		runPlan(t, p, func(plan *dataflow.Plan) {
			plan.Source("nums", rangeSource(100)).
				Map("double", func(r any) any { return r.(uint64) * 2 }).
				Filter("small", func(r any) bool { return r.(uint64) < 50 }).
				Sink("out", col.sink)
		})
		got := col.uints()
		if len(got) != 25 {
			t.Fatalf("P=%d: got %d records, want 25", p, len(got))
		}
		for i, v := range got {
			if v != uint64(i*2) {
				t.Fatalf("P=%d: got[%d] = %d", p, i, v)
			}
		}
	}
}

func TestFlatMap(t *testing.T) {
	col := &collector{}
	runPlan(t, 3, func(plan *dataflow.Plan) {
		plan.Source("nums", rangeSource(10)).
			FlatMap("dup", func(r any, emit dataflow.Emit) {
				emit(r)
				emit(r.(uint64) + 100)
			}).
			Sink("out", col.sink)
	})
	if got := len(col.uints()); got != 20 {
		t.Fatalf("got %d records, want 20", got)
	}
}

func TestReduceGroupsAllRecordsOfAKey(t *testing.T) {
	// Sum of 0..999 grouped by mod 10 must match the closed form
	// regardless of parallelism.
	for _, p := range []int{1, 4, 8} {
		col := &collector{}
		runPlan(t, p, func(plan *dataflow.Plan) {
			plan.Source("nums", rangeSource(1000)).
				ReduceBy("sum-by-mod", func(r any) uint64 { return r.(uint64) % 10 },
					func(key uint64, vals []any, emit dataflow.Emit) {
						var s uint64
						for _, v := range vals {
							s += v.(uint64)
						}
						emit(s)
					}).
				Sink("out", col.sink)
		})
		got := col.uints()
		if len(got) != 10 {
			t.Fatalf("P=%d: %d groups, want 10", p, len(got))
		}
		var total uint64
		for _, v := range got {
			total += v
		}
		if total != 999*1000/2 {
			t.Fatalf("P=%d: total %d", p, total)
		}
	}
}

func TestInnerJoin(t *testing.T) {
	col := &collector{}
	runPlan(t, 4, func(plan *dataflow.Plan) {
		left := plan.Source("left", rangeSource(20))
		right := plan.Source("right", func(part, nparts int, emit dataflow.Emit) error {
			for i := part; i < 30; i += nparts {
				if i%2 == 0 {
					emit(uint64(i))
				}
			}
			return nil
		})
		left.Join("match", right, identKey, identKey, dataflow.JoinInner,
			func(l, r any, emit dataflow.Emit) { emit(l.(uint64) + r.(uint64)) }).
			Sink("out", col.sink)
	})
	got := col.uints()
	// Matches: even numbers 0..18 -> 10 records, values 2*i.
	if len(got) != 10 {
		t.Fatalf("%d join results, want 10: %v", len(got), got)
	}
	for i, v := range got {
		if v != uint64(4*i) {
			t.Fatalf("got[%d] = %d, want %d", i, v, 4*i)
		}
	}
}

func TestLeftOuterJoin(t *testing.T) {
	type pair struct {
		l uint64
		r any
	}
	var mu sync.Mutex
	var pairs []pair
	runPlan(t, 3, func(plan *dataflow.Plan) {
		left := plan.Source("left", rangeSource(6))
		right := plan.Source("right", func(part, nparts int, emit dataflow.Emit) error {
			if part == 0 {
				emit(uint64(2))
				emit(uint64(4))
			}
			return nil
		})
		left.Join("outer", right, identKey, identKey, dataflow.JoinLeftOuter,
			func(l, r any, emit dataflow.Emit) { emit(pair{l.(uint64), r}) }).
			Sink("out", func(_ int, rec any) error {
				mu.Lock()
				pairs = append(pairs, rec.(pair))
				mu.Unlock()
				return nil
			})
	})
	if len(pairs) != 6 {
		t.Fatalf("%d outer join results, want 6", len(pairs))
	}
	matched := 0
	for _, pr := range pairs {
		if pr.r != nil {
			matched++
			if pr.r.(uint64) != pr.l {
				t.Fatalf("mismatched join: %+v", pr)
			}
		}
	}
	if matched != 2 {
		t.Fatalf("matched %d, want 2", matched)
	}
}

func TestJoinWithDuplicateKeysIsCrossProductPerKey(t *testing.T) {
	col := &collector{}
	runPlan(t, 2, func(plan *dataflow.Plan) {
		left := plan.Source("left", func(part, nparts int, emit dataflow.Emit) error {
			if part == 0 {
				emit(uint64(7))
				emit(uint64(7))
			}
			return nil
		})
		right := plan.Source("right", func(part, nparts int, emit dataflow.Emit) error {
			if part == 0 {
				emit(uint64(7))
				emit(uint64(7))
				emit(uint64(7))
			}
			return nil
		})
		left.Join("x", right, identKey, identKey, dataflow.JoinInner,
			func(l, r any, emit dataflow.Emit) { emit(l) }).
			Sink("out", col.sink)
	})
	if got := len(col.uints()); got != 6 {
		t.Fatalf("2x3 duplicate join gave %d rows, want 6", got)
	}
}

func TestCoGroup(t *testing.T) {
	type grouped struct {
		key    uint64
		nl, nr int
	}
	var mu sync.Mutex
	var got []grouped
	runPlan(t, 4, func(plan *dataflow.Plan) {
		left := plan.Source("left", rangeSource(10))
		right := plan.Source("right", func(part, nparts int, emit dataflow.Emit) error {
			for i := part; i < 20; i += nparts {
				emit(uint64(i % 5))
			}
			return nil
		})
		left.CoGroup("cg", right,
			func(r any) uint64 { return r.(uint64) % 5 },
			identKey,
			func(key uint64, lefts, rights []any, emit dataflow.Emit) {
				emit(grouped{key, len(lefts), len(rights)})
			}).
			Sink("out", func(_ int, rec any) error {
				mu.Lock()
				got = append(got, rec.(grouped))
				mu.Unlock()
				return nil
			})
	})
	if len(got) != 5 {
		t.Fatalf("%d cogroups, want 5", len(got))
	}
	for _, g := range got {
		if g.nl != 2 || g.nr != 4 {
			t.Fatalf("cogroup %d: %d/%d, want 2/4", g.key, g.nl, g.nr)
		}
	}
}

type mapTable map[uint64]string

func (m mapTable) Get(k uint64) (any, bool) {
	v, ok := m[k]
	if !ok {
		return nil, false
	}
	return v, true
}

func TestLookupJoinRoutesToOwningPartition(t *testing.T) {
	table := mapTable{1: "one", 2: "two", 3: "three"}
	var mu sync.Mutex
	var got []string
	runPlan(t, 4, func(plan *dataflow.Plan) {
		plan.Source("keys", rangeSource(5)).
			LookupJoin("lu", "names", identKey,
				func(int, int) dataflow.Table { return table },
				func(rec any, tbl dataflow.Table, emit dataflow.Emit) {
					if v, ok := tbl.Get(rec.(uint64)); ok {
						emit(v)
					}
				}).
			Sink("out", func(_ int, rec any) error {
				mu.Lock()
				got = append(got, rec.(string))
				mu.Unlock()
				return nil
			})
	})
	sort.Strings(got)
	want := []string{"one", "three", "two"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("lookup results = %v", got)
	}
}

func TestUnionMergesBothInputs(t *testing.T) {
	col := &collector{}
	runPlan(t, 3, func(plan *dataflow.Plan) {
		a := plan.Source("a", rangeSource(5))
		b := plan.Source("b", func(part, nparts int, emit dataflow.Emit) error {
			for i := part; i < 5; i += nparts {
				emit(uint64(i + 100))
			}
			return nil
		})
		a.Union("u", b).Sink("out", col.sink)
	})
	if got := len(col.uints()); got != 10 {
		t.Fatalf("union produced %d records, want 10", got)
	}
}

func TestBroadcastExchange(t *testing.T) {
	const P = 4
	plan := dataflow.NewPlan("bcast")
	src := plan.Source("one", func(part, nparts int, emit dataflow.Emit) error {
		if part == 0 {
			emit(uint64(42))
		}
		return nil
	})
	m := src.Map("pass", func(r any) any { return r })
	m.Node().InExchange[0] = dataflow.ExBroadcast
	col := &collector{}
	m.Sink("out", col.sink)
	if _, err := (&Engine{Parallelism: P}).Run(plan); err != nil {
		t.Fatal(err)
	}
	if got := len(col.uints()); got != P {
		t.Fatalf("broadcast delivered %d copies, want %d", got, P)
	}
}

func TestRebalanceSpreadsRecords(t *testing.T) {
	const P = 4
	var mu sync.Mutex
	perPart := make([]int, P)
	plan := dataflow.NewPlan("rebalance")
	plan.Source("skewed", func(part, nparts int, emit dataflow.Emit) error {
		if part == 0 {
			for i := 0; i < 400; i++ {
				emit(uint64(i))
			}
		}
		return nil
	}).
		Rebalance("spread").
		Sink("out", func(part int, _ any) error {
			mu.Lock()
			perPart[part]++
			mu.Unlock()
			return nil
		})
	if _, err := (&Engine{Parallelism: P}).Run(plan); err != nil {
		t.Fatal(err)
	}
	for p, c := range perPart {
		if c != 100 {
			t.Fatalf("partition %d got %d records, want 100: %v", p, c, perPart)
		}
	}
}

func TestEdgeAndNodeCounters(t *testing.T) {
	stats := runPlan(t, 4, func(plan *dataflow.Plan) {
		plan.Source("src", rangeSource(50)).
			Map("pass", func(r any) any { return r }).
			ReduceBy("group", identKey, func(k uint64, vals []any, emit dataflow.Emit) { emit(k) }).
			Sink("out", (&collector{}).sink)
	})
	if got := stats.Records("src->pass"); got != 50 {
		t.Fatalf("src->pass = %d", got)
	}
	if got := stats.Records("pass->group"); got != 50 {
		t.Fatalf("pass->group = %d", got)
	}
	if got := stats.Records("group->out"); got != 50 {
		t.Fatalf("group->out = %d", got)
	}
	if got := stats.Outputs("pass"); got != 50 {
		t.Fatalf("outputs(pass) = %d", got)
	}
	if stats.Records("missing->edge") != 0 || stats.Outputs("missing") != 0 {
		t.Fatal("unknown names should count zero")
	}
}

func TestErrorPropagationFromSource(t *testing.T) {
	plan := dataflow.NewPlan("boom")
	boom := errors.New("boom")
	plan.Source("src", func(part, _ int, emit dataflow.Emit) error {
		if part == 1 {
			return boom
		}
		for i := 0; i < 1000000; i++ { // large enough to block on channels
			emit(uint64(i))
		}
		return nil
	}).
		ReduceBy("group", identKey, func(k uint64, _ []any, emit dataflow.Emit) { emit(k) }).
		Sink("out", func(int, any) error { return nil })
	_, err := (&Engine{Parallelism: 4, ChannelDepth: 1}).Run(plan)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestErrorPropagationFromSink(t *testing.T) {
	plan := dataflow.NewPlan("sink-err")
	plan.Source("src", rangeSource(100)).
		Sink("out", func(_ int, rec any) error {
			if rec.(uint64) == 57 {
				return errors.New("bad record 57")
			}
			return nil
		})
	_, err := (&Engine{Parallelism: 2}).Run(plan)
	if err == nil {
		t.Fatal("sink error not propagated")
	}
}

func TestCompensationNodesAreSkipped(t *testing.T) {
	ran := false
	plan := dataflow.NewPlan("skip-comp")
	src := plan.Source("src", rangeSource(10))
	col := &collector{}
	src.Sink("out", col.sink)
	fix := src.Map("fix", func(r any) any { ran = true; return r })
	fix.Sink("restored", func(int, any) error { ran = true; return nil })
	plan.MarkCompensation("fix")

	stats, err := (&Engine{Parallelism: 2}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("compensation path executed during failure-free run")
	}
	if len(col.uints()) != 10 {
		t.Fatal("regular path did not run")
	}
	if stats.Outputs("fix") != 0 {
		t.Fatal("compensation node counted output")
	}
}

func TestParallelismValidation(t *testing.T) {
	if _, err := (&Engine{Parallelism: 0}).Run(dataflow.NewPlan("x")); err == nil {
		t.Fatal("parallelism 0 accepted")
	}
}

func TestDiamondPlanDoesNotDeadlock(t *testing.T) {
	// One source feeds both join inputs through different paths; the
	// concurrent-drain join must not deadlock even with tiny buffers.
	col := &collector{}
	plan := dataflow.NewPlan("diamond")
	src := plan.Source("src", rangeSource(5000))
	a := src.Map("a", func(r any) any { return r })
	b := src.Map("b", func(r any) any { return r })
	a.Join("self", b, identKey, identKey, dataflow.JoinInner,
		func(l, _ any, emit dataflow.Emit) { emit(l) }).
		Sink("out", col.sink)
	if _, err := (&Engine{Parallelism: 2, ChannelDepth: 1, BatchSize: 2}).Run(plan); err != nil {
		t.Fatal(err)
	}
	if got := len(col.uints()); got != 5000 {
		t.Fatalf("self-join produced %d rows, want 5000", got)
	}
}

// Property: a shuffle-reduce sum equals the direct sum for arbitrary
// inputs and parallelism.
func TestReduceSumProperty(t *testing.T) {
	f := func(vals []uint16, pRaw uint8) bool {
		p := int(pRaw%8) + 1
		var want uint64
		for _, v := range vals {
			want += uint64(v)
		}
		var mu sync.Mutex
		var got uint64
		plan := dataflow.NewPlan("prop")
		plan.Source("vals", func(part, nparts int, emit dataflow.Emit) error {
			for i := part; i < len(vals); i += nparts {
				emit(uint64(vals[i]))
			}
			return nil
		}).
			ReduceBy("sum", func(r any) uint64 { return r.(uint64) % 16 },
				func(_ uint64, group []any, emit dataflow.Emit) {
					var s uint64
					for _, v := range group {
						s += v.(uint64)
					}
					emit(s)
				}).
			Sink("total", func(_ int, rec any) error {
				mu.Lock()
				got += rec.(uint64)
				mu.Unlock()
				return nil
			})
		if _, err := (&Engine{Parallelism: p, BatchSize: 3}).Run(plan); err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUDFPanicBecomesError(t *testing.T) {
	plan := dataflow.NewPlan("panicky")
	plan.Source("src", rangeSource(100)).
		Map("boom", func(r any) any {
			if r.(uint64) == 31 {
				panic("UDF exploded")
			}
			return r
		}).
		Sink("out", func(int, any) error { return nil })
	_, err := (&Engine{Parallelism: 4}).Run(plan)
	if err == nil || !strings.Contains(err.Error(), "UDF panic") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestSourcePanicBecomesError(t *testing.T) {
	plan := dataflow.NewPlan("panicky-src")
	plan.Source("src", func(part, _ int, emit dataflow.Emit) error {
		if part == 2 {
			panic("source exploded")
		}
		emit(uint64(part))
		return nil
	}).Sink("out", func(int, any) error { return nil })
	_, err := (&Engine{Parallelism: 4}).Run(plan)
	if err == nil || !strings.Contains(err.Error(), "partition 2") {
		t.Fatalf("err = %v", err)
	}
}

func TestNodeElapsedAndProfile(t *testing.T) {
	stats := runPlan(t, 2, func(plan *dataflow.Plan) {
		plan.Source("src", rangeSource(2000)).
			Map("work", func(r any) any { return r.(uint64) * 3 }).
			Sink("out", (&collector{}).sink)
	})
	if stats.Elapsed("work") <= 0 {
		t.Fatalf("no elapsed time recorded: %v", stats.NodeElapsed)
	}
	profile := stats.Profile()
	for _, want := range []string{"operator", "task time", "src", "work", "out"} {
		if !strings.Contains(profile, want) {
			t.Fatalf("profile missing %q:\n%s", want, profile)
		}
	}
}
