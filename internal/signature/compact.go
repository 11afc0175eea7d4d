// Bank compaction: shrinking the candidate set itself. Representative
// traces oversample common request types, so a bank holds many
// near-identical signatures that every identification rescores. Compact
// deduplicates them once, at build time, by k-medoids over the pairwise L1
// pattern distances — routed through the parallel distance engine —
// keeping one medoid signature per cluster.
package signature

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/distance"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Compact reduces a bank to k medoid entries chosen by k-medoids over the
// pairwise L1 distances between entry patterns. The prediction threshold
// is preserved (it summarizes the full trace population, not the surviving
// entries), entries keep their relative order, and the original bank is
// left untouched. A non-positive k or one at least the bank size returns
// the bank unchanged. Deterministic for a given bank and seed.
func Compact(b *Bank, k int, seed int64) *Bank {
	if k <= 0 || k >= len(b.Entries) {
		return b
	}
	seqs := make([][]float64, len(b.Entries))
	for i := range b.Entries {
		seqs[i] = b.Entries[i].Pattern
	}
	dm := distance.NewMatrixFromSequences(seqs, distance.L1{}, distance.MatrixOptions{})
	res := cluster.KMedoidsMatrix(dm, cluster.Config{K: k, Seed: seed})
	keep := append([]int(nil), res.Medoids...)
	sort.Ints(keep)
	out := &Bank{
		Metric:      b.Metric,
		BucketIns:   b.BucketIns,
		ThresholdNs: b.ThresholdNs,
		Entries:     make([]Entry, 0, len(keep)),
	}
	for _, i := range keep {
		out.Entries = append(out.Entries, b.Entries[i])
	}
	return out
}

// BuildCompact builds a bank like Build, then compacts it to at most
// compactTo medoid entries (see Compact).
func BuildCompact(traces []*trace.Request, m metrics.Metric, bucketIns float64,
	maxEntries, compactTo int, seed int64) *Bank {
	return Compact(Build(traces, m, bucketIns, maxEntries), compactTo, seed)
}
