// The tick engine. Each virtual tick runs three phases:
//
//  1. Ingest (serial): take stream arrivals up to the tick boundary from
//     the intake, hash each to a shard by sequence number, and either
//     enqueue it — degraded past DegradeDepth — or shed it when the shard
//     queue is full.
//  2. Process (parallel): shard workers burn their per-tick virtual budget
//     on their own queues, oldest request first, charging each pattern
//     chunk's virtual cost and scanning the bank only on the two chunks
//     whose match a request reads (its half point and its last chunk).
//     Shards are claimed off an atomic counter by a persistent worker
//     pool; every shard's work is a pure function of its queue, so worker
//     scheduling cannot change results.
//  3. Aggregate (serial, shard order): merge tick tallies, append
//     completions to the sliding window, compact queues, and — every
//     CompactTicks — rebuild the signature bank and recalibrate the
//     anomaly threshold (bank.go), then refresh the degraded-path cache.
package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// req is one queued in-flight request. Records live in preallocated
// per-shard queues and are moved by value.
type req struct {
	reqRec
	pos      int32
	patLen   int32
	degraded bool
	predDone bool
	predHigh bool
}

// shardTally is one shard's per-tick outcome counts, merged serially in
// shard order so totals are independent of worker scheduling.
type shardTally struct {
	completed         uint64
	completedDegraded uint64
	flagged           uint64
	flaggedInjected   uint64
	early             uint64
	earlyWrong        uint64
	scoreSum          float64
}

// shardState is one virtual service core: its queue, pattern scratch, tick
// tally, and completion buffer. Only its owning worker touches it during
// the parallel phase.
type shardState struct {
	q      []req
	patBuf []float64 // materialized pattern of the request being scanned
	winBuf []reqRec
	tally  shardTally
	done   int // requests completed this tick: always a prefix of q
	depth  int // peak queue depth seen on this shard
	// Pad to keep neighboring shards off each other's cache lines.
	_ [64]byte
}

// Engine is a running service-mode pipeline. Methods are not safe for
// concurrent use; the engine parallelizes internally.
type Engine struct {
	cfg Config
	in  intake
	// tmplCache[app][t] is template t identified against the current bank
	// (refreshed at every compaction); degraded requests resolve against
	// it at constant cost.
	tmplCache [][]tmplMatch

	// bm owns the signature bank, its anomaly threshold, and the sliding
	// window that feeds compaction.
	bm *bankMaintainer

	shards []shardState
	shift  uint

	tick  uint64
	nowNs int64

	res Result

	workers int
	workCh  []chan struct{}
	wg      sync.WaitGroup
	claim   atomic.Int64
	closed  bool

	hist                                              *obs.Histogram
	cArrivals, cShed, cDegraded, cCompleted, cFlagged *obs.Counter
}

// New builds the engine: template libraries, the initial signature bank
// (the templates themselves, so identification works from tick zero), the
// shard queues, and the persistent worker pool.
func New(cfg Config) (*Engine, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	in, err := newIntake(cfg.Stream, cfg.TemplatesPerApp, cfg.MaxPatternLen)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		in:      in,
		bm:      newBankMaintainer(cfg.bankKnobs(), in.tmpl, cfg.Stream.Apps, cfg.Stream.Seed, newWorkspace(cfg.bankKnobs(), longestPattern(in.tmpl), 0)),
		shards:  make([]shardState, cfg.Shards),
		shift:   uint(64 - log2(cfg.Shards)),
		workers: cfg.Workers,
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.q = make([]req, 0, cfg.QueueCap)
		sh.patBuf = make([]float64, 0, cfg.MaxPatternLen)
		sh.winBuf = make([]reqRec, 0, cfg.QueueCap)
	}
	e.tmplCache = make([][]tmplMatch, len(in.tmpl))
	for a := range in.tmpl {
		e.tmplCache[a] = make([]tmplMatch, len(in.tmpl[a]))
	}
	e.refreshTemplateCache()
	if c := cfg.Obs; c != nil {
		e.hist = obs.NewHistogram("serve.identify.ns")
		c.RegisterHistogram(e.hist)
		e.cArrivals = c.Counter("serve.arrivals")
		e.cShed = c.Counter("serve.shed")
		e.cDegraded = c.Counter("serve.degraded")
		e.cCompleted = c.Counter("serve.completed")
		e.cFlagged = c.Counter("serve.flagged")
		e.bm.cCompactions = c.Counter("serve.compactions")
		e.bm.cRecalibrations = c.Counter("serve.recalibrations")
	}
	if e.workers > 1 {
		e.workCh = make([]chan struct{}, e.workers)
		for w := range e.workCh {
			ch := make(chan struct{}, 1)
			e.workCh[w] = ch
			go func() {
				for range ch {
					for {
						s := int(e.claim.Add(1)) - 1
						if s >= len(e.shards) {
							break
						}
						e.processShard(&e.shards[s])
					}
					e.wg.Done()
				}
			}()
		}
	}
	return e, nil
}

// refreshTemplateCache re-identifies every template against the current
// bank. Cached matches are anomaly- and drift-free (the template's
// inherent behavior), which is exactly the blindness degradation buys:
// an overloaded shard stops seeing per-request deviations.
func (e *Engine) refreshTemplateCache() {
	for a := range e.in.tmpl {
		for t := range e.in.tmpl[a] {
			pat := e.in.tmpl[a][t].pattern
			best, dist := e.bm.cols.Identify(pat)
			e.tmplCache[a][t] = tmplMatch{
				best:  best,
				high:  e.bm.bank.HighUsage(best),
				score: dist / float64(len(pat)),
			}
		}
	}
}

// log2 of a power of two.
func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// shardFor spreads arrival sequence numbers over the shards by Fibonacci
// hashing, which scatters consecutive numbers across all of them.
func (e *Engine) shardFor(seq uint64) *shardState {
	if len(e.shards) == 1 {
		return &e.shards[0]
	}
	return &e.shards[(seq*0x9E3779B97F4A7C15)>>e.shift]
}

// Process advances the engine until at least n more stream arrivals have
// been ingested (admitted or shed), then finishes the current tick and
// returns. The queue may hold in-flight requests afterwards; call Drain to
// run them down, or Process again to continue the stream.
func (e *Engine) Process(n int) {
	var ingested int
	for ingested < n {
		ingested += e.runTick(true)
	}
}

// Drain runs ticks without ingesting until every shard queue is empty.
func (e *Engine) Drain() {
	for {
		e.runTick(false)
		if e.Queued() == 0 {
			return
		}
	}
}

// runTick executes one full tick and returns the number of arrivals
// ingested.
func (e *Engine) runTick(ingest bool) int {
	tickEnd := e.nowNs + e.cfg.TickNs
	var arrivals int
	if ingest {
		arrivals = e.ingest(tickEnd)
	}
	// Parallel shard phase.
	if e.workers > 1 {
		e.claim.Store(0)
		e.wg.Add(e.workers)
		for _, ch := range e.workCh {
			ch <- struct{}{}
		}
		e.wg.Wait()
	} else {
		for i := range e.shards {
			e.processShard(&e.shards[i])
		}
	}
	e.aggregate()
	e.nowNs = tickEnd
	e.tick++
	if e.tick%uint64(e.cfg.CompactTicks) == 0 && e.bm.compact() {
		// Swap the bank under live traffic. A mid-identification head
		// carries no match state, so its next scan simply reads the new
		// bank; only the degraded-path cache needs refreshing.
		e.refreshTemplateCache()
	}
	return arrivals
}

// ingest admits stream arrivals up to the tick boundary. Only admitted
// anomalies count as injected.
func (e *Engine) ingest(tickEnd int64) int {
	var n int
	for {
		rec, _, seq, ok := e.in.next(tickEnd)
		if !ok {
			return n
		}
		n++
		e.res.Arrivals++
		e.cArrivals.Add(1)
		sh := e.shardFor(seq)
		if len(sh.q) == cap(sh.q) {
			e.res.Shed++
			e.cShed.Add(1)
			continue
		}
		if rec.anom {
			e.res.Injected++
		}
		degraded := len(sh.q) >= e.cfg.DegradeDepth
		if degraded {
			e.res.Degraded++
			e.cDegraded.Add(1)
		}
		sh.q = append(sh.q, req{
			reqRec:   rec,
			patLen:   int32(len(e.in.tmpl[rec.app][rec.tmpl].pattern)),
			degraded: degraded,
		})
		if len(sh.q) > sh.depth {
			sh.depth = len(sh.q)
		}
	}
}

// processShard burns one shard's tick budget on its queue, oldest request
// first. It touches only the shard's own state, so concurrent shards never
// conflict.
func (e *Engine) processShard(sh *shardState) {
	budget := e.cfg.TickNs
	for i := range sh.q {
		r := &sh.q[i]
		if r.degraded {
			if budget < e.cfg.CostDegradedNs {
				return
			}
			budget -= e.cfg.CostDegradedNs
			m := e.tmplCache[r.app][r.tmpl]
			if !r.predDone {
				r.predDone = true
				r.predHigh = m.high
				sh.tally.early++
				if m.high != (r.cpuNs > e.bm.bank.ThresholdNs) {
					sh.tally.earlyWrong++
				}
			}
			e.complete(sh, r, m.score, true)
			continue
		}
		for r.pos < r.patLen {
			nb := int32(e.cfg.ChunkBuckets)
			if rem := r.patLen - r.pos; rem < nb {
				nb = rem
			}
			cost := e.cfg.CostPerCallNs + int64(nb)*e.cfg.CostPerBucketNs
			if budget < cost {
				return
			}
			budget -= cost
			r.pos += nb
			// The match is read at two points only: the half-pattern CPU
			// prediction and the completion score. Other chunks just pay
			// their virtual cost; when both points fall on one chunk, one
			// scan serves both.
			half := !r.predDone && r.pos >= (r.patLen+1)/2
			if !half && r.pos < r.patLen {
				continue
			}
			sh.patBuf = appendPattern(sh.patBuf[:0], e.in.tmpl[r.app][r.tmpl].pattern, r.drift, r.anom)
			// The host clock is read only for an attached collector; a
			// detached engine pays a nil check here, as every other hook does.
			var t0 time.Time
			if e.hist != nil {
				t0 = time.Now()
			}
			best, dist := e.bm.cols.Identify(sh.patBuf[:r.pos])
			if e.hist != nil {
				e.hist.Observe(int64(time.Since(t0)))
			}
			if half {
				r.predDone = true
				r.predHigh = e.bm.bank.HighUsage(best)
				sh.tally.early++
				if r.predHigh != (r.cpuNs > e.bm.bank.ThresholdNs) {
					sh.tally.earlyWrong++
				}
			}
			if r.pos == r.patLen {
				e.complete(sh, r, dist/float64(r.patLen), false)
			}
		}
	}
}

// complete finalizes a request on its shard: anomaly scoring against the
// calibrated threshold, tick tallies, and the window record.
func (e *Engine) complete(sh *shardState, r *req, score float64, degraded bool) {
	sh.done++
	sh.tally.completed++
	if degraded {
		sh.tally.completedDegraded++
	}
	sh.tally.scoreSum += score
	if score > e.bm.threshold {
		sh.tally.flagged++
		if r.anom {
			sh.tally.flaggedInjected++
		}
	}
	sh.winBuf = append(sh.winBuf, r.reqRec)
}

// aggregate merges every shard's tick outcome serially in shard order and
// compacts the queues (survivors keep arrival order).
func (e *Engine) aggregate() {
	for i := range e.shards {
		sh := &e.shards[i]
		t := &sh.tally
		e.res.Completed += t.completed
		e.res.CompletedDegraded += t.completedDegraded
		e.res.Flagged += t.flagged
		e.res.FlaggedInjected += t.flaggedInjected
		e.res.EarlyPredictions += t.early
		e.res.EarlyWrong += t.earlyWrong
		e.res.ScoreSum += t.scoreSum
		e.cCompleted.Add(t.completed)
		e.cFlagged.Add(t.flagged)
		*t = shardTally{}
		e.bm.record(sh.winBuf)
		sh.winBuf = sh.winBuf[:0]
		if sh.depth > e.res.MaxShardDepth {
			e.res.MaxShardDepth = sh.depth
		}
		// Queue compaction: processing stops at the first request the
		// budget could not finish, so the completions are a prefix of the
		// queue and shifting the survivors down preserves FIFO.
		sh.q = sh.q[:copy(sh.q, sh.q[sh.done:])]
		sh.done = 0
	}
	e.res.Ticks++
}

// Queued returns the total in-flight requests across shards.
func (e *Engine) Queued() int {
	var n int
	for i := range e.shards {
		n += len(e.shards[i].q)
	}
	return n
}

// Histogram returns the identify-path latency histogram: wall-clock
// nanoseconds per bank scan (at most two per request), observability only
// and never
// fingerprinted. It is nil, and reads as empty, unless the engine was built
// with a collector (Config.Obs); a detached engine never reads the host
// clock.
func (e *Engine) Histogram() *obs.Histogram { return e.hist }

// Result snapshots the run's deterministic outcome.
func (e *Engine) Result() Result {
	r := e.res
	r.VirtualNs = e.nowNs
	r.Compactions = e.bm.compactions
	r.Recalibrations = e.bm.recalibrations
	r.BankEntries = len(e.bm.bank.Entries)
	r.Threshold = e.bm.threshold
	r.WindowFill = e.bm.winLen
	r.Queued = e.Queued()
	return r
}

// Close stops the worker pool. The engine must not be used afterwards.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, ch := range e.workCh {
		close(ch)
	}
}
