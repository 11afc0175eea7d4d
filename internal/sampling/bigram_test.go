package sampling

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestBigramKey(t *testing.T) {
	if got := BigramKey("", "read"); got != "read" {
		t.Fatalf("no-prev key = %q", got)
	}
	if got := BigramKey("poll", "read"); got != "poll>read" {
		t.Fatalf("bigram key = %q", got)
	}
	var s bigramState
	if s.next(trace.SysPoll) != trace.NoSyscall {
		t.Fatal("first call should have no predecessor")
	}
	if prev := s.next(trace.SysRead); BigramKey(prev.String(), "read") != "poll>read" {
		t.Fatal("second call should be bigram-keyed")
	}
	s.reset()
	if prev := s.next(trace.SysRead); BigramKey(prev.String(), "read") != "read" {
		t.Fatal("reset should clear the previous call")
	}
}

// TestBigramSeparatesContexts demonstrates the Section 3.2 improvement on
// its canonical case: in the web server, the read following poll starts
// request parsing (a CPI increase), while reads inside the parse loop
// change nothing. Unigram training blurs them; bigram training separates
// them.
func TestBigramSeparatesContexts(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig())
	tk := NewTracker(k, Config{
		Mode:         SyscallTriggered,
		TsyscallMin:  0,
		TbackupInt:   500 * sim.Microsecond,
		Compensate:   true,
		TrainSignals: true,
		Bigrams:      true,
	})
	d := kernel.NewDriver(k, kernel.LoadConfig{
		App: workload.NewWebServer(), Concurrency: 1, Requests: 150, Seed: 4,
	})
	d.Start()
	eng.RunAll()

	stats := map[string]SignalStat{}
	for _, s := range tk.Trainer().Stats() {
		stats[s.Name] = s
	}
	pollRead, ok1 := stats["poll>read"]
	readRead, ok2 := stats["read>read"]
	if !ok1 || !ok2 {
		t.Fatalf("bigram stats missing: %v %v (have %d signals)", ok1, ok2, len(stats))
	}
	if !pollRead.Increase() {
		t.Fatalf("poll>read should signal an increase: %+v", pollRead)
	}
	// The parse-internal read is a much weaker signal than the
	// request-start read.
	if pollRead.Mean < readRead.Mean+0.3 {
		t.Fatalf("bigrams did not separate read contexts: poll>read %.2f vs read>read %.2f",
			pollRead.Mean, readRead.Mean)
	}
	// The blurred unigram (trained separately) sits between the two.
	tk2 := trainUnigrams(t)
	read, ok := tk2["read"]
	if !ok {
		t.Fatal("unigram read missing")
	}
	if !(read.Mean < pollRead.Mean && read.Mean > readRead.Mean-0.05) {
		t.Fatalf("unigram read (%.2f) should blur poll>read (%.2f) and read>read (%.2f)",
			read.Mean, pollRead.Mean, readRead.Mean)
	}
}

func trainUnigrams(t *testing.T) map[string]SignalStat {
	t.Helper()
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig())
	tk := NewTracker(k, Config{
		Mode:         SyscallTriggered,
		TsyscallMin:  0,
		TbackupInt:   500 * sim.Microsecond,
		Compensate:   true,
		TrainSignals: true,
	})
	d := kernel.NewDriver(k, kernel.LoadConfig{
		App: workload.NewWebServer(), Concurrency: 1, Requests: 150, Seed: 4,
	})
	d.Start()
	eng.RunAll()
	out := map[string]SignalStat{}
	for _, s := range tk.Trainer().Stats() {
		out[s.Name] = s
	}
	return out
}

func TestBigramTriggersFireOnSequence(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig())
	tk := NewTracker(k, Config{
		Mode:        SignalTriggered,
		TsyscallMin: 0,
		TbackupInt:  sim.Millisecond,
		Signals:     map[string]bool{"poll>read": true},
		Bigrams:     true,
		Compensate:  true,
	})
	d := kernel.NewDriver(k, kernel.LoadConfig{
		App: workload.NewWebServer(), Concurrency: 1, Requests: 20, Seed: 2,
	})
	d.Start()
	eng.RunAll()
	// Only the poll>read sequence triggers: roughly one kernel-context
	// syscall sample per request beyond the context switch pair.
	perReq := float64(tk.Counts.Kernel) / 20
	if perReq < 2 || perReq > 6 {
		t.Fatalf("bigram-triggered kernel samples per request = %.1f, want a handful", perReq)
	}
}
