package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestRandomScriptKeepsInvariants drives seeded random membership
// scripts — Fail, AcquireN, Release, AssignOrphans, AddSpares, and a
// standby reserved and later adopted the way the process-backed
// coordinator adopts one — and checks the invariants both backends rely
// on after every op: every owner is live or its partition is orphaned,
// Workers is sorted and unique, a bounded pool never goes negative, a
// rejected Release changes nothing, and a reserved ID is never a member.
func TestRandomScriptKeepsInvariants(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var opts []Option
		bounded := rng.Intn(2) == 0
		if bounded {
			opts = append(opts, WithSpares(rng.Intn(3)))
		}
		if rng.Intn(3) == 0 {
			opts = append(opts, WithAcquireHook(func(seq, _ int) (time.Duration, error) {
				if seq%3 == 0 {
					return 0, errors.New("flaky provisioner")
				}
				return time.Millisecond, nil
			}))
		}
		c := New(1+rng.Intn(4), 1+rng.Intn(8), opts...)
		ids := len(c.Workers()) // IDs handed out so far, members or not
		var reserved []int
		pick := func() int { return rng.Intn(ids+2) - 1 }

		for op := 0; op < 200; op++ {
			var what string
			switch rng.Intn(7) {
			case 0:
				w := pick()
				what = fmt.Sprintf("Fail(%d)", w)
				c.Fail(w)
			case 1:
				n := 1 + rng.Intn(3)
				what = fmt.Sprintf("AcquireN(%d)", n)
				ws, _, _ := c.AcquireN(n)
				ids = max(ids, slices.Max(append(ws, -1))+1)
			case 2:
				w := pick()
				if len(reserved) > 0 && rng.Intn(3) == 0 {
					w = reserved[rng.Intn(len(reserved))]
				}
				what = fmt.Sprintf("Release(%d)", w)
				owners, spares := slices.Clone(c.owner), c.Spares()
				events, dropped := len(c.Events()), c.DroppedEvents()
				err := c.Release(w)
				if slices.Contains(reserved, w) && !errors.Is(err, ErrUnknownWorker) {
					t.Fatalf("seed %d op %d: %s of a reserved ID: %v, want ErrUnknownWorker", seed, op, what, err)
				}
				if err != nil && (!slices.Equal(owners, c.owner) || spares != c.Spares() ||
					events != len(c.Events()) || dropped != c.DroppedEvents()) {
					t.Fatalf("seed %d op %d: rejected %s changed membership: %v", seed, op, what, err)
				}
			case 3:
				what = "AssignOrphans()"
				c.AssignOrphans()
			case 4:
				n := rng.Intn(3)
				what = fmt.Sprintf("AddSpares(%d)", n)
				c.AddSpares(n)
			case 5:
				what = "Reserve()"
				reserved = append(reserved, c.Reserve())
				ids++
			case 6:
				if len(reserved) == 0 || c.Grant(1) == 0 {
					continue
				}
				r := reserved[0]
				what = fmt.Sprintf("adopt standby %d", r)
				w, provision := c.Attempt(r)
				if w != r {
					t.Fatalf("seed %d op %d: Attempt(%d) handed out %d", seed, op, r, w)
				}
				if _, err := provision(); err != nil {
					c.AcquireFailed(w, err)
					continue
				}
				c.Admit(w)
				c.AdoptOrphans([]Acquired{{Worker: w}})
				reserved = reserved[1:]
			}

			orphaned := c.Orphaned()
			for p := 0; p < c.NumPartitions(); p++ {
				if o := c.Owner(p); !c.IsAlive(o) && !slices.Contains(orphaned, p) {
					t.Fatalf("seed %d op %d (%s): partition %d owned by dead worker %d, not orphaned %v", seed, op, what, p, o, orphaned)
				}
			}
			ws := c.Workers()
			for i := 1; i < len(ws); i++ {
				if ws[i-1] >= ws[i] {
					t.Fatalf("seed %d op %d (%s): Workers %v not sorted and unique", seed, op, what, ws)
				}
			}
			if s := c.Spares(); bounded && s < 0 || !bounded && s != -1 {
				t.Fatalf("seed %d op %d (%s): spares = %d (bounded %v)", seed, op, what, s, bounded)
			}
			for _, r := range reserved {
				if c.IsAlive(r) || slices.Contains(ws, r) {
					t.Fatalf("seed %d op %d (%s): reserved ID %d is a member", seed, op, what, r)
				}
			}
		}
	}
}
