package verify

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// differentialSeeds is the per-check trial budget: every differential runs
// each seed, so a CI failure names the (check, seed) pair that reproduces
// it locally.
const differentialSeeds = 25

// TestDifferentials runs every fast-path/oracle pair over the seeded trial
// grid at GOMAXPROCS 1 and 4 — under `go test -race` this is the suite the
// acceptance criteria name. GOMAXPROCS is process-global, so the two legs
// run sequentially; within a leg the seeds run concurrently to give the
// race detector real interleavings.
func TestDifferentials(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			for _, d := range differentials() {
				t.Run(d.Name, func(t *testing.T) {
					errs := make([]error, differentialSeeds)
					var wg sync.WaitGroup
					for i := range errs {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							errs[i] = d.Check(int64(i) + 1)
						}(i)
					}
					wg.Wait()
					for i, err := range errs {
						if err != nil {
							t.Fatalf("seed %d: %v", i+1, err)
						}
					}
				})
			}
		})
	}
}

// TestDifferentialNamesAreStable pins the suite's contents: removing a
// check (or renaming one CI greps for) should be a deliberate act.
func TestDifferentialNamesAreStable(t *testing.T) {
	want := map[string]bool{
		"matrix/parallel-vs-serial":            true,
		"dtw/blocked-vs-reference":             true,
		"signature/session-vs-naive":           true,
		"signature/reused-session-vs-naive":    true,
		"pastrequests/ring-vs-recompute":       true,
		"fault/evaluate-vs-bruteforce":         true,
		"causal/localizer-vs-bruteforce":       true,
		"sched/policy-conservation":            true,
		"signature/pattern-matrix-vs-pairwise": true,
		"signature/columns-vs-naive":           true,
		"cluster/kmedoids-vs-reference":        true,
	}
	got := differentials()
	if len(got) < len(want) {
		t.Fatalf("differential suite shrank: %d checks", len(got))
	}
	for _, d := range got {
		delete(want, d.Name)
	}
	for name := range want {
		t.Errorf("differential %q missing from the suite", name)
	}
}
