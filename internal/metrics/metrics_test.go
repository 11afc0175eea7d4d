package metrics

import (
	"testing"
	"testing/quick"
)

func TestAddSub(t *testing.T) {
	a := Counters{Cycles: 100, Instructions: 50, L2Refs: 10, L2Misses: 2}
	b := Counters{Cycles: 30, Instructions: 20, L2Refs: 4, L2Misses: 1}
	sum := a.Add(b)
	if sum.Cycles != 130 || sum.Instructions != 70 || sum.L2Refs != 14 || sum.L2Misses != 3 {
		t.Fatalf("Add = %v", sum)
	}
	if got := sum.Sub(b); got != a {
		t.Fatalf("Sub did not invert Add: %v", got)
	}
}

func TestSubSaturates(t *testing.T) {
	small := Counters{Cycles: 5, Instructions: 5}
	big := Counters{Cycles: 10, Instructions: 3, L2Refs: 7}
	got := small.Sub(big)
	if got.Cycles != 0 {
		t.Fatalf("Cycles should saturate at 0, got %d", got.Cycles)
	}
	if got.Instructions != 2 {
		t.Fatalf("Instructions = %d, want 2", got.Instructions)
	}
	if got.L2Refs != 0 {
		t.Fatalf("L2Refs should saturate at 0, got %d", got.L2Refs)
	}
}

func TestSubNeverUnderflowsProperty(t *testing.T) {
	f := func(a, b Counters) bool {
		d := a.Sub(b)
		return d.Cycles <= a.Cycles && d.Instructions <= a.Instructions &&
			d.L2Refs <= a.L2Refs && d.L2Misses <= a.L2Misses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValue(t *testing.T) {
	c := Counters{Cycles: 300, Instructions: 100, L2Refs: 20, L2Misses: 5}
	cases := []struct {
		m    Metric
		want float64
	}{
		{CPI, 3.0},
		{L2RefsPerIns, 0.2},
		{L2MissRatio, 0.25},
		{L2MissesPerIns, 0.05},
	}
	for _, tc := range cases {
		if got := c.Value(tc.m); got != tc.want {
			t.Errorf("%v = %v, want %v", tc.m, got, tc.want)
		}
	}
}

func TestValueZeroDenominator(t *testing.T) {
	var zero Counters
	for _, m := range AllMetrics() {
		if got := zero.Value(m); got != 0 {
			t.Errorf("%v of zero counters = %v, want 0", m, got)
		}
	}
}

func TestValueNonNegativeProperty(t *testing.T) {
	f := func(c Counters) bool {
		for _, m := range AllMetrics() {
			if c.Value(m) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeight(t *testing.T) {
	c := Counters{Instructions: 100, L2Refs: 7}
	if got := c.Weight(CPI); got != 100 {
		t.Fatalf("Weight(CPI) = %v", got)
	}
	if got := c.Weight(L2MissRatio); got != 7 {
		t.Fatalf("Weight(L2MissRatio) = %v", got)
	}
}

func TestStrings(t *testing.T) {
	if CPI.String() != "cycles per instruction" {
		t.Fatalf("CPI.String() = %q", CPI.String())
	}
	if Metric(99).String() == "" {
		t.Fatal("unknown metric String empty")
	}
	if CtxKernel.String() != "in-kernel" || CtxInterrupt.String() != "interrupt" {
		t.Fatal("SampleContext strings wrong")
	}
	if (Counters{}).String() == "" {
		t.Fatal("Counters.String empty")
	}
}

func TestUnknownMetricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Value of unknown metric did not panic")
		}
	}()
	Counters{}.Value(Metric(42))
}
