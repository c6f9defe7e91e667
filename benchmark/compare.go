package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// declaration is the part of BENCHMARK.json -compare needs: which way
// each end-to-end metric is better and how far it may worsen.
type declaration struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readDeclaration(path string) (declaration, error) {
	var d declaration
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 {
		return d, fmt.Errorf("%s declares no end-to-end metrics", path)
	}
	return d, nil
}

// readLedger reads the entries -out appended to a ledger file.
func readLedger(path string) ([]entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var entries []entry
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("%s holds no ledger entries", path)
	}
	return entries, nil
}

// across summarises one metric over the runs of one workload: with
// several runs, the spread of their medians (what the contract
// measures); with a single run, that run's own samples.
func across(entries []entry, metric string) summary {
	if len(entries) == 1 {
		return entries[0].EndToEnd[metric]
	}
	medians := make([]float64, len(entries))
	for i, e := range entries {
		medians[i] = e.EndToEnd[metric].Value
	}
	return summarize(medians)
}

func byWorkload(entries []entry) map[string][]entry {
	out := make(map[string][]entry)
	for _, e := range entries {
		out[e.Workload] = append(out[e.Workload], e)
	}
	return out
}

// compareLedgers prints, per workload and end-to-end metric, both
// sides' median and quartiles, the change and the verdict against the
// metric's bound. It also holds both sides to an error rate of zero
// and, for runs of the same seed, to identical exact counts. notOK
// reports whether anything was worse, unresolved, failed or differed.
func compareLedgers(w io.Writer, boundsPath, aPath, bPath string) (notOK bool, err error) {
	decl, err := readDeclaration(boundsPath)
	if err != nil {
		return false, err
	}
	aAll, err := readLedger(aPath)
	if err != nil {
		return false, err
	}
	bAll, err := readLedger(bPath)
	if err != nil {
		return false, err
	}
	a, b := byWorkload(aAll), byWorkload(bAll)
	names := make([]string, 0, len(a))
	for name := range a {
		if _, both := b[name]; both {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", aPath, bPath)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "A = %s, B = %s; change is how much worse B's median is than A's\n", aPath, bPath)
	for _, name := range names {
		fmt.Fprintf(w, "%s  (A %d runs, B %d runs)\n", name, len(a[name]), len(b[name]))
		for _, mtr := range decl.EndToEnd {
			sa, sb := across(a[name], mtr.Name), across(b[name], mtr.Name)
			v := judge(mtr.Better, mtr.Bound, sa, sb)
			notOK = notOK || v != verdictOK
			fmt.Fprintf(w, "  %-24s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g] %s  change %+.2f%%  spread %.2f%%/%.2f%%  bound %.0f%%  %s\n",
				mtr.Name, sa.Value, sa.Q1, sa.Q3, sb.Value, sb.Q1, sb.Q3, mtr.Unit,
				100*worsening(mtr.Better, sa, sb), 100*sa.spread(), 100*sb.spread(), 100*mtr.Bound, v)
		}
		for _, side := range [][]entry{a[name], b[name]} {
			for _, e := range side {
				if e.Failed > 0 || !e.Correct {
					notOK = true
					fmt.Fprintf(w, "  error_rate %.4g (%d failed of %d) in a run of seed %d\n", e.ErrorRate, e.Failed, e.Attempted, e.Header.Seed)
				}
			}
		}
		if diff := countDifferences(a[name], b[name]); len(diff) > 0 {
			notOK = true
			for _, d := range diff {
				fmt.Fprintln(w, "  exact counts differ:", d)
			}
		} else {
			fmt.Fprintln(w, "  exact counts repeat in every run and agree between runs of equal seed")
		}
	}
	return notOK, nil
}

// countDifferences checks the counts that must repeat exactly: within
// each run, and between any two runs of the same seed.
func countDifferences(a, b []entry) []string {
	var diffs []string
	bySeed := make(map[int64]map[string]exactCounts)
	for _, e := range append(append([]entry(nil), a...), b...) {
		for v, c := range e.Counts {
			if !c.Repeat {
				diffs = append(diffs, fmt.Sprintf("%s varied within a run of seed %d", v, e.Header.Seed))
			}
			seen, ok := bySeed[e.Header.Seed]
			if !ok {
				seen = make(map[string]exactCounts)
				bySeed[e.Header.Seed] = seen
			}
			if first, ok := seen[v]; !ok {
				seen[v] = c
			} else if first.Supersteps != c.Supersteps || first.Ticks != c.Ticks || first.Messages != c.Messages {
				diffs = append(diffs, fmt.Sprintf("%s at seed %d: %d/%d/%d vs %d/%d/%d supersteps/ticks/messages",
					v, e.Header.Seed, first.Supersteps, first.Ticks, first.Messages, c.Supersteps, c.Ticks, c.Messages))
			}
		}
	}
	sort.Strings(diffs)
	return diffs
}
