package stages

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// synth builds a value sequence from (length, level) runs.
func synth(runs ...[2]float64) []float64 {
	var out []float64
	for _, r := range runs {
		for i := 0; i < int(r[0]); i++ {
			out = append(out, r[1])
		}
	}
	return out
}

func TestIdentifyCleanSteps(t *testing.T) {
	vals := synth([2]float64{10, 1}, [2]float64{10, 5}, [2]float64{10, 2})
	st := identifyValues(vals, Config{BucketIns: 100, MaxStages: 3})
	if len(st) != 3 {
		t.Fatalf("stages = %d, want 3: %v", len(st), st)
	}
	wantMeans := []float64{1, 5, 2}
	for i, s := range st {
		if math.Abs(s.Mean-wantMeans[i]) > 1e-9 {
			t.Fatalf("stage %d mean = %v, want %v", i, s.Mean, wantMeans[i])
		}
		if s.Spread != 0 {
			t.Fatalf("clean stage has spread %v", s.Spread)
		}
	}
	// Boundaries at 1000 and 2000 instructions.
	if st[1].StartIns != 1000 || st[2].StartIns != 2000 {
		t.Fatalf("boundaries at %v/%v", st[1].StartIns, st[2].StartIns)
	}
}

func TestIdentifyNoisySteps(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var vals []float64
	for _, level := range []float64{1, 4, 1.5} {
		for i := 0; i < 20; i++ {
			vals = append(vals, level+r.NormFloat64()*0.1)
		}
	}
	st := identifyValues(vals, Config{BucketIns: 1, MaxStages: 3})
	if len(st) != 3 {
		t.Fatalf("stages = %d, want 3", len(st))
	}
	for i, ref := range []float64{20, 40} {
		if math.Abs(st[i+1].StartIns-ref) > 2 {
			t.Fatalf("transition %d at %v, want %v±2: %v", i, st[i+1].StartIns, ref, st)
		}
	}
}

func TestToleranceStopsMerging(t *testing.T) {
	vals := synth([2]float64{5, 1}, [2]float64{5, 10})
	// Huge tolerance merges everything.
	st := identifyValues(vals, Config{BucketIns: 1, Tolerance: 10})
	if len(st) != 1 {
		t.Fatalf("tolerant segmentation = %d stages", len(st))
	}
	// Tight tolerance keeps the two levels apart.
	st = identifyValues(vals, Config{BucketIns: 1, Tolerance: 0.05})
	if len(st) != 2 {
		t.Fatalf("tight segmentation = %d stages: %v", len(st), st)
	}
}

func TestZeroToleranceMergesEqualsOnly(t *testing.T) {
	vals := []float64{2, 2, 2, 3, 3}
	st := identifyValues(vals, Config{BucketIns: 1})
	if len(st) != 2 {
		t.Fatalf("stages = %d, want 2", len(st))
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if st := identifyValues(nil, Config{BucketIns: 1}); st != nil {
		t.Fatal("empty input should yield nil")
	}
	st := identifyValues([]float64{7}, Config{BucketIns: 100})
	if len(st) != 1 || st[0].Mean != 7 || st[0].EndIns-st[0].StartIns != 100 {
		t.Fatalf("single bucket = %+v", st)
	}
}

func TestStagesPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64() * 4
		}
		k := 1 + r.Intn(6)
		st := identifyValues(vals, Config{BucketIns: 10, MaxStages: k, Tolerance: 0.2})
		if len(st) == 0 {
			return false
		}
		// Stages tile [0, n*10) without gaps or overlaps.
		if st[0].StartIns != 0 || st[len(st)-1].EndIns != float64(n*10) {
			return false
		}
		for i := 1; i < len(st); i++ {
			if st[i].StartIns != st[i-1].EndIns {
				return false
			}
		}
		// Length-weighted stage means preserve the global mean.
		var got, total float64
		for _, s := range st {
			got += s.Mean * (s.EndIns - s.StartIns)
			total += s.EndIns - s.StartIns
		}
		var want float64
		for _, v := range vals {
			want += v * 10
		}
		return math.Abs(got-want)/total < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMaxStagesRespectedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vals := make([]float64, 5+r.Intn(50))
		for i := range vals {
			vals[i] = r.Float64()
		}
		k := 1 + r.Intn(5)
		st := identifyValues(vals, Config{BucketIns: 1, MaxStages: k, Tolerance: 5})
		return len(st) <= k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIdentifyFromTrace(t *testing.T) {
	tr := &trace.Request{ID: 1, App: "x", Type: "t"}
	// Two clear behavioral stages: low CPI then high CPI.
	for i := 0; i < 6; i++ {
		tr.AddPeriod(100, metrics.Counters{Cycles: 100_000, Instructions: 100_000, L2Refs: 1000, L2Misses: 100})
	}
	for i := 0; i < 6; i++ {
		tr.AddPeriod(100, metrics.Counters{Cycles: 400_000, Instructions: 100_000, L2Refs: 4000, L2Misses: 2000})
	}
	st := Identify(tr, metrics.CPI, Config{BucketIns: 100_000, MaxStages: 2})
	if len(st) != 2 {
		t.Fatalf("stages = %d", len(st))
	}
	if st[0].Mean >= st[1].Mean {
		t.Fatal("stage means not ordered with the trace")
	}
	if math.Abs(st[1].StartIns-600_000) > 100_000 {
		t.Fatalf("transition at %v, want ~600k", st[1].StartIns)
	}
}

func TestAnnotateAll(t *testing.T) {
	tr := &trace.Request{ID: 1, App: "x", Type: "t"}
	for i := 0; i < 4; i++ {
		tr.AddPeriod(100, metrics.Counters{Cycles: 150_000, Instructions: 100_000, L2Refs: 500, L2Misses: 50})
	}
	for i := 0; i < 4; i++ {
		tr.AddPeriod(100, metrics.Counters{Cycles: 350_000, Instructions: 100_000, L2Refs: 5000, L2Misses: 1500})
	}
	ann := AnnotateAll(tr, metrics.CPI, Config{BucketIns: 100_000, MaxStages: 2})
	if len(ann) != 2 {
		t.Fatalf("annotated stages = %d", len(ann))
	}
	// Each stage carries every derived metric, and the second stage is
	// hotter on all of them.
	for _, m := range metrics.AllMetrics() {
		v0, ok0 := ann[0].Values[m]
		v1, ok1 := ann[1].Values[m]
		if !ok0 || !ok1 {
			t.Fatalf("metric %v missing from annotation", m)
		}
		if v1 <= v0 {
			t.Errorf("metric %v: stage 2 (%v) not hotter than stage 1 (%v)", m, v1, v0)
		}
	}
	if ann[0].String() == "" {
		t.Error("empty stage rendering")
	}
}

func TestIdentifyPanicsOnBadBucket(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Identify with zero bucket did not panic")
		}
	}()
	Identify(&trace.Request{}, metrics.CPI, Config{})
}
