package serve

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/signature"
)

// newTestMaintainers builds n maintainers, seeded seed, seed+1, …, over
// the templates cfg's stream and template knobs produce. Like a fleet's
// nodes, they share one workspace sized for mergeCap merged entries.
func newTestMaintainers(t testing.TB, cfg Config, seed int64, n, mergeCap int) []*bankMaintainer {
	t.Helper()
	tmpl, err := buildTemplates(cfg.Stream, cfg.TemplatesPerApp, cfg.MaxPatternLen)
	if err != nil {
		t.Fatal(err)
	}
	ws := newWorkspace(cfg.bankKnobs(), longestPattern(tmpl), mergeCap)
	bms := make([]*bankMaintainer, n)
	for i := range bms {
		bms[i] = newBankMaintainer(cfg.bankKnobs(), tmpl, cfg.Stream.Apps, seed+int64(i), ws)
	}
	return bms
}

// newTestMaintainer builds one maintainer with a workspace of its own.
func newTestMaintainer(t testing.TB, cfg Config, seed int64, mergeCap int) *bankMaintainer {
	t.Helper()
	return newTestMaintainers(t, cfg, seed, 1, mergeCap)[0]
}

// syntheticRecs returns n window records cycling over every template, with
// a drift and an injected anomaly now and then, so compaction has varied
// patterns to cluster.
func syntheticRecs(b *bankMaintainer, n int) []reqRec {
	recs := make([]reqRec, n)
	for i := range recs {
		app := i % len(b.tmpl)
		t := (i / len(b.tmpl)) % len(b.tmpl[app])
		recs[i] = reqRec{
			app:   int32(app),
			tmpl:  int32(t),
			anom:  i%37 == 0,
			drift: 1 + float64(i%11)/100,
			cpuNs: b.tmpl[app][t].cpuNs * (1 + float64(i%7)/50),
		}
	}
	return recs
}

// TestBankWindowOldestFirst: after the ring wraps, at(i) walks the last
// WindowSize records oldest first.
func TestBankWindowOldestFirst(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.WindowSize = 5
	b := newTestMaintainer(t, cfg, 1, 0)
	recs := make([]reqRec, 13)
	for i := range recs {
		recs[i].cpuNs = float64(i)
	}
	b.record(recs[:4])
	b.record(recs[4:])
	if b.winLen != cfg.WindowSize {
		t.Fatalf("winLen = %d, want %d", b.winLen, cfg.WindowSize)
	}
	for i := 0; i < b.winLen; i++ {
		if got, want := b.at(i).cpuNs, float64(len(recs)-cfg.WindowSize+i); got != want {
			t.Fatalf("at(%d) = record %v, want %v", i, got, want)
		}
	}
}

// TestBankSparseWindowRecalibratesOnly: a window below minWindowFill keeps
// the template bank but still recalibrates the threshold.
func TestBankSparseWindowRecalibratesOnly(t *testing.T) {
	b := newTestMaintainer(t, DefaultConfig(1), 1, 0)
	entries := len(b.bank.Entries)
	b.record(syntheticRecs(b, minWindowFill-1))
	if b.compact() {
		t.Fatal("compact rebuilt the bank from a sparse window")
	}
	if b.compactions != 0 || b.recalibrations != 1 {
		t.Fatalf("compactions %d, recalibrations %d; want 0, 1", b.compactions, b.recalibrations)
	}
	if len(b.bank.Entries) != entries {
		t.Fatalf("bank has %d entries, want the %d templates", len(b.bank.Entries), entries)
	}
	if math.IsInf(b.threshold, 1) {
		t.Fatal("threshold not calibrated")
	}

	b.record(syntheticRecs(b, minWindowFill))
	if !b.compact() || b.compactions != 1 || len(b.bank.Entries) != b.knobs.BankK {
		t.Fatalf("full window: compactions %d, %d entries", b.compactions, len(b.bank.Entries))
	}
}

// mallocsOnce counts the heap allocations of one call to f. Unlike
// testing.AllocsPerRun it has no warm-up call, so it also catches scratch
// that grows on first use. It collects first: a collection that starts
// around f can allocate on the runtime's behalf (a background mark
// worker's goroutine in a fresh process), which would count against f.
// It collects twice: under the race detector at GOMAXPROCS 4, with one
// collection after the switch to one P, the runtime still allocated one
// object during f.
func mallocsOnce(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// maintainerSize is one owner's bank-maintainer sizing: the engine's, or
// that of the nodes of a fleet, whose shared workspace a merge fills with
// a whole fleet's concatenated banks.
type maintainerSize struct {
	name     string
	cfg      Config
	nodes    int
	mergeCap int
}

// maintainerSizes returns the engine's default sizing and that of a node
// of fleet fc.
func maintainerSizes(fc FleetConfig) []maintainerSize {
	fleetCfg := Config{
		Stream:              fc.Stream,
		TemplatesPerApp:     fc.TemplatesPerApp,
		MaxPatternLen:       fc.MaxPatternLen,
		WindowSize:          fc.WindowSize,
		BankK:               fc.BankK,
		CalibrationQuantile: fc.CalibrationQuantile,
		CalibrationHeadroom: fc.CalibrationHeadroom,
	}
	fleetCap := len(fc.Nodes) * max(fc.BankK, fc.TemplatesPerApp*len(fc.Stream.Apps))
	return []maintainerSize{
		{"engine", DefaultConfig(1), 1, 0},
		{"fleet-node", fleetCfg, len(fc.Nodes), fleetCap},
	}
}

// TestBankMaintenanceAllocs: a merge allocates nothing even the first
// time, when it gathers every maintainer's whole template-library bank
// into their shared workspace and swaps each bank for a BankK-entry one,
// rewriting the column stores; and compaction allocates nothing, a fresh
// maintainer's first one included, at the engine's scratch sizes and at a
// fleet node's.
func TestBankMaintenanceAllocs(t *testing.T) {
	for _, tc := range maintainerSizes(smallFleetConfig(1)) {
		group := newTestMaintainers(t, tc.cfg, 3, tc.nodes, tc.mergeCap)
		var library int
		for i, b := range group {
			b.record(syntheticRecs(b, tc.cfg.WindowSize+i))
			library += len(b.bank.Entries)
		}
		if library <= tc.cfg.WindowSize && tc.nodes > 1 {
			t.Fatalf("%s: merge gathers %d candidates, want more than a %d-record window", tc.name, library, tc.cfg.WindowSize)
		}
		if allocs := mallocsOnce(func() { mergeBanks(group[0].workspace, group, 7) }); allocs != 0 {
			t.Errorf("%s: first merge over %d library entries allocates %v, want 0", tc.name, library, allocs)
		}
		// Every node adopts the same merged bank: a rebuild that read the
		// candidates after a recalibration rematerialized a window into the
		// shared workspace would differ.
		for i, b := range group {
			if len(b.bank.Entries) != tc.cfg.BankK || b.bank.ThresholdNs != group[0].bank.ThresholdNs {
				t.Fatalf("%s: node %d bank has %d entries, threshold %v", tc.name, i, len(b.bank.Entries), b.bank.ThresholdNs)
			}
			for c, e := range b.bank.Entries {
				if e0 := group[0].bank.Entries[c]; e.Type != e0.Type || e.CPUTimeNs != e0.CPUTimeNs || !reflect.DeepEqual(e.Pattern, e0.Pattern) {
					t.Fatalf("%s: node %d entry %d differs from node 0's", tc.name, i, c)
				}
			}
			if math.IsInf(b.threshold, 1) {
				t.Fatalf("%s: node %d not recalibrated", tc.name, i)
			}
		}

		b := group[0]
		b.record(syntheticRecs(b, 3*tc.cfg.WindowSize))
		fresh := newTestMaintainer(t, tc.cfg, 3, tc.mergeCap)
		fresh.record(syntheticRecs(fresh, tc.cfg.WindowSize))
		if allocs := mallocsOnce(func() { fresh.compact() }); allocs != 0 {
			t.Errorf("%s: first compact allocates %v, want 0", tc.name, allocs)
		}
		if allocs := testing.AllocsPerRun(5, func() { b.compact() }); allocs != 0 {
			t.Errorf("%s: compact allocates %v, want 0", tc.name, allocs)
		}
	}
}

// TestBankCompactMatrixOrientation: after a compaction, matrix cell (i < j)
// is PatternDistance(pats[i], pats[j]) bit for bit — the older window
// record is the first argument, whose tail the distance charges.
func TestBankCompactMatrixOrientation(t *testing.T) {
	b := newTestMaintainer(t, DefaultConfig(1), 1, 0)
	b.record(syntheticRecs(b, b.knobs.WindowSize+7))
	if !b.compact() {
		t.Fatal("full window did not compact")
	}
	asymmetric := 0
	for i := 0; i < b.winLen; i++ {
		for j := i + 1; j < b.winLen; j++ {
			want := signature.PatternDistance(b.pats[i], b.pats[j])
			if got := b.dm.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cell (%d,%d) = %v, want d(pats[%d], pats[%d]) = %v", i, j, got, i, j, want)
			}
			if want != signature.PatternDistance(b.pats[j], b.pats[i]) {
				asymmetric++
			}
		}
	}
	// The window mixes template lengths, so swapped arguments would show.
	if asymmetric == 0 {
		t.Fatal("no asymmetric pair in the window: the orientation check is vacuous")
	}
}

// BenchmarkBankCompact times one full-window compaction — materialize, the
// pairwise matrix fill, k-medoids, the bank rebuild and recalibration — at
// the engine's and a default fleet node's sizes, and one fleet-round: every
// node of a default fleet compacting in turn in the fleet's one workspace.
//
// Run with:
//
//	go test -run '^$' -bench BenchmarkBankCompact ./internal/serve
func BenchmarkBankCompact(b *testing.B) {
	for _, tc := range maintainerSizes(DefaultFleetConfig(1)) {
		b.Run(tc.name, func(b *testing.B) {
			m := newTestMaintainer(b, tc.cfg, 3, tc.mergeCap)
			m.record(syntheticRecs(m, 3*tc.cfg.WindowSize))
			m.compact() // grows the matrix and k-medoids scratch once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.compact()
			}
		})
	}
	b.Run("fleet-round", func(b *testing.B) {
		f, err := NewFleet(DefaultFleetConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		for i, m := range f.bms {
			m.record(syntheticRecs(m, 3*f.cfg.WindowSize+i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, m := range f.bms {
				m.compact()
			}
		}
	})
}

// scanSink keeps BenchmarkBankScan's results live.
var scanSink int

// BenchmarkBankScan times one identification scan of the warmed default
// engine's bank against its window patterns: the plain entry-at-a-time
// scan, Bank.IdentifyPatternScored, and the column sweep every serving
// scan runs, signature.Columns.Identify. The patterns are scanned whole
// and in window order; a one-time check holds the two scans' index and
// distance bit-identical on every one of them.
//
// Run with:
//
//	go test -run '^$' -bench BenchmarkBankScan ./internal/serve
func BenchmarkBankScan(b *testing.B) {
	e, err := New(DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	e.Process(1_700_000) // the warm-up of BenchmarkServeSteadyState
	bm := e.bm
	bm.materialize()
	pats := bm.pats[:bm.winLen]
	var buckets int
	for _, p := range pats {
		buckets += len(p)
		want, wantD := bm.bank.IdentifyPatternScored(p)
		if got, gotD := bm.cols.Identify(p); got != want || math.Float64bits(gotD) != math.Float64bits(wantD) {
			b.Fatalf("pattern %v: columns (%d, %v), plain (%d, %v)", p, got, gotD, want, wantD)
		}
	}
	for _, bc := range []struct {
		name string
		scan func([]float64) (int, float64)
	}{
		{"plain", bm.bank.IdentifyPatternScored},
		{"columns", bm.cols.Identify},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportMetric(float64(len(bm.bank.Entries)), "entries")
			b.ReportMetric(float64(buckets)/float64(len(pats)), "buckets/pattern")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scanSink, _ = bc.scan(pats[i%len(pats)])
			}
		})
	}
}
