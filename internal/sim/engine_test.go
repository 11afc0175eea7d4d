package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
	e.Cancel(ev)
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel and cancel-after-fire must be safe.
	e.Cancel(ev)
	ev2 := e.At(20, func() {})
	e.RunAll()
	e.Cancel(ev2)
}

func TestEngineCancelFromWithinEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	var victim *Event
	e.At(1, func() { e.Cancel(victim) })
	victim = e.At(2, func() { fired = true })
	e.RunAll()
	if fired {
		t.Fatal("event cancelled from within an earlier event still fired")
	}
}

func TestEngineScheduleInPastRunsNow(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100, func() {
		e.At(50, func() { at = e.Now() }) // in the past
	})
	e.RunAll()
	if at != 100 {
		t.Fatalf("past event ran at %d, want 100", at)
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		e.After(10, tick)
	}
	e.After(10, tick)
	e.Run(95)
	if count != 9 {
		t.Fatalf("ran %d ticks before horizon 95, want 9", count)
	}
	if e.Now() != 95 {
		t.Fatalf("Now = %d after horizon, want 95", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 100; i++ {
		e.At(Time(i), func() {
			count++
			if count == 5 {
				e.Stop()
			}
		})
	}
	e.RunAll()
	if count != 5 {
		t.Fatalf("Stop did not halt run: count = %d", count)
	}
}

func TestEnginePendingAndDispatched(t *testing.T) {
	e := NewEngine()
	ev := e.At(10, func() {})
	e.At(20, func() {})
	if len(e.queue) != 2 {
		t.Fatalf("queued = %d, want 2", len(e.queue))
	}
	if !ev.Pending() || ev.at != 10 {
		t.Fatalf("event not pending at 10: pending=%v at=%v", ev.Pending(), ev.at)
	}
	e.Cancel(ev)
	if ev.Pending() || len(e.queue) != 1 {
		t.Fatal("cancel did not remove the event eagerly")
	}
	e.RunAll()
	if e.Dispatched() != 1 {
		t.Fatalf("Dispatched = %d, want 1 (cancelled events never count)", e.Dispatched())
	}
	var nilEv *Event
	if nilEv.Pending() {
		t.Fatal("nil event reports pending")
	}
}

// A heavy mixed workload of schedules and mid-queue cancels dispatches in
// exact (time, seq) order — the heap invariant under push/remove/fix.
func TestEngineHeapOrderUnderChurn(t *testing.T) {
	e := NewEngine()
	g := NewRNG(17)
	type rec struct {
		at  Time
		seq int
	}
	var got []rec
	var events []*Event
	for i := 0; i < 500; i++ {
		i := i
		at := Time(g.Intn(100))
		events = append(events, e.At(at, func() { got = append(got, rec{e.Now(), i}) }))
	}
	// Cancel a third of them from the middle of the heap.
	cancelled := map[int]bool{}
	for i := 0; i < 500; i += 3 {
		e.Cancel(events[i])
		cancelled[i] = true
	}
	e.RunAll()
	if len(got) != 500-len(cancelled) {
		t.Fatalf("dispatched %d events, want %d", len(got), 500-len(cancelled))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
			t.Fatalf("dispatch order violated at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestTimerFiresAndRearms(t *testing.T) {
	e := NewEngine()
	var fired []Time
	tm := e.NewTimer(func() { fired = append(fired, e.Now()) })
	if tm.Pending() {
		t.Fatal("new timer reports pending")
	}
	tm.Arm(10)
	if !tm.Pending() || tm.ev.at != 10 {
		t.Fatalf("armed timer: pending=%v at=%v", tm.Pending(), tm.ev.at)
	}
	e.RunAll()
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want [10]", fired)
	}
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	// Re-arming after firing reuses the same event allocation.
	tm.Arm(5)
	e.RunAll()
	if len(fired) != 2 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [10 15]", fired)
	}
}

// Re-arming a pending timer replaces the earlier arming: moving it both
// earlier and later must reposition it inside the heap.
func TestTimerRearmRepositions(t *testing.T) {
	for _, d := range []Time{3, 40} {
		e := NewEngine()
		var fired []Time
		tm := e.NewTimer(func() { fired = append(fired, e.Now()) })
		// Surrounding events give the heap structure to reposition within.
		for i := Time(1); i <= 50; i += 7 {
			e.At(i, func() {})
		}
		tm.Arm(20)
		tm.Arm(d)
		e.RunAll()
		if len(fired) != 1 || fired[0] != d {
			t.Fatalf("re-armed to %d fired at %v", d, fired)
		}
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer(func() { t.Fatal("stopped timer fired") })
	tm.Stop() // stop while unarmed is a no-op
	tm.Arm(10)
	tm.Stop()
	if tm.Pending() {
		t.Fatal("stopped timer still pending")
	}
	tm.Stop() // double stop is safe
	e.RunAll()
}

func TestTimerArmInPastClampsToNow(t *testing.T) {
	e := NewEngine()
	var at Time
	tm := e.NewTimer(func() { at = e.Now() })
	e.At(100, func() { tm.ArmAt(50) })
	e.RunAll()
	if at != 100 {
		t.Fatalf("past arming fired at %d, want 100", at)
	}
}

// Each Arm consumes exactly one scheduling sequence number, the same as the
// After call it replaces — the invariant that made the kernel's Timer
// conversion fingerprint-preserving. Same-time Timer and After events must
// interleave purely by arming order.
func TestTimerSeqParityWithAfter(t *testing.T) {
	e := NewEngine()
	var got []int
	tm1 := e.NewTimer(func() { got = append(got, 1) })
	tm2 := e.NewTimer(func() { got = append(got, 3) })
	tm1.Arm(10)
	e.After(10, func() { got = append(got, 2) })
	tm2.Arm(10)
	e.After(10, func() { got = append(got, 4) })
	e.RunAll()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("same-time dispatch order %v, want %v", got, want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uniform(0, 1) != b.Uniform(0, 1) {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Uniform(0, 1) == c.Uniform(0, 1) {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestForkLabeledStable(t *testing.T) {
	a := ForkLabeled(7, "tpcc")
	b := ForkLabeled(7, "tpcc")
	if a.Uniform(0, 1) != b.Uniform(0, 1) {
		t.Fatal("ForkLabeled not stable for identical labels")
	}
	c := ForkLabeled(7, "tpch")
	d := ForkLabeled(7, "tpcc")
	if c.Uniform(0, 1) == d.Uniform(0, 1) {
		t.Fatal("ForkLabeled collision across labels (extremely unlikely)")
	}
}

func TestClampedNormalBounds(t *testing.T) {
	g := NewRNG(1)
	f := func(seed int64) bool {
		v := g.ClampedNormal(5, 100, 0, 10)
		return v >= 0 && v <= 10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPickRespectsWeights(t *testing.T) {
	g := NewRNG(9)
	counts := [3]int{}
	for i := 0; i < 10000; i++ {
		counts[g.Pick([]float64{0.45, 0.43, 0.12})]++
	}
	if counts[0] < 4000 || counts[0] > 5000 {
		t.Fatalf("weight 0.45 drew %d/10000", counts[0])
	}
	if counts[2] > 2000 {
		t.Fatalf("weight 0.12 drew %d/10000", counts[2])
	}
}

func TestPickPanicsOnZeroWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pick with zero weights did not panic")
		}
	}()
	NewRNG(1).Pick([]float64{0, 0})
}

func TestExpNonNegative(t *testing.T) {
	g := NewRNG(4)
	for i := 0; i < 1000; i++ {
		if g.Exp(5) < 0 {
			t.Fatal("Exp produced negative value")
		}
	}
	if g.Exp(0) != 0 || g.Exp(-1) != 0 {
		t.Fatal("Exp with non-positive mean should be 0")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{4 * Second, "4.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", c.in, got, c.want)
		}
	}
}
