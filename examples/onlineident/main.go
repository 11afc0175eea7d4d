// Online identification: the paper's Section 4.4 per-request CPU-usage
// prediction run as a serving subsystem. A signature bank is built from
// traced TPC-C requests and compacted to its medoid signatures; the
// remaining requests then stream through concurrent identification
// sessions — one per worker, re-identified after every arriving bucket, the way a production tier would consult predictions while
// requests execute — and the demo reports prediction accuracy and
// fast-path throughput against the naive full-rescan matcher.
package main

import (
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/signature"
	"repro/internal/workload"
)

const bucketIns = 300e3 // TPCC's Figure 10 progress unit

func main() {
	app := workload.NewTPCC()
	res, err := core.Run(core.Options{
		App:      app,
		Requests: 400,
		Sampling: core.DefaultSampling(app),
		Seed:     11,
	})
	if err != nil {
		log.Fatal(err)
	}
	traces := res.Store.Traces
	split := len(traces) * 2 / 3
	test := traces[split:]

	// Build the bank from the modeling portion, then compact it: k-medoids
	// over pairwise pattern distances keeps one representative signature
	// per behavior family, shrinking the per-update candidate set.
	full := signature.Build(traces[:split], metrics.L2RefsPerIns, bucketIns, 500)
	compact := signature.Compact(full, 32, 1)
	fmt.Printf("bank: %d signatures, compacted to %d medoids (threshold %.0f ns)\n",
		len(full.Entries), len(compact.Entries), full.ThresholdNs)

	// Pre-resample the test streams once so the loop below times matching,
	// not resampling.
	streams := make([][]float64, len(test))
	for i, tr := range test {
		streams[i] = tr.Resampled(metrics.L2RefsPerIns, bucketIns)
	}

	for _, bank := range []*signature.Bank{full, compact} {
		matcher := signature.NewMatcher(bank)

		var updates, correct, early atomic.Int64
		start := time.Now()
		var wg sync.WaitGroup
		var cursor atomic.Int64
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ses := matcher.NewSession()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(streams) {
						return
					}
					actual := float64(test[i].CPUTime()) > bank.ThresholdNs
					// Stream the request bucket by bucket, consulting the
					// prediction after every arrival.
					ses.Reset()
					settled := -1
					for pos, v := range streams[i] {
						ses.Extend(v)
						best := ses.Best()
						if settled < 0 && bank.HighUsage(best) == actual {
							settled = pos
						}
						updates.Add(1)
					}
					if bank.HighUsage(ses.Best()) == actual {
						correct.Add(1)
						if settled == 0 {
							early.Add(1)
						}
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)

		fmt.Printf("\n%4d-entry bank: %d requests, %d streaming updates in %v\n",
			len(bank.Entries), len(streams), updates.Load(), elapsed.Round(time.Microsecond))
		fmt.Printf("     throughput: %.2fM updates/s across %d workers\n",
			float64(updates.Load())/elapsed.Seconds()/1e6, runtime.GOMAXPROCS(0))
		fmt.Printf("     final prediction accuracy: %d/%d (%.0f%%), correct from the first bucket: %d\n",
			correct.Load(), len(streams),
			100*float64(correct.Load())/float64(len(streams)), early.Load())
	}
}
