package main

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/stats"
)

// maxRetries and the backoff below are core.Manager's retry rule.
const maxRetries = 3

// mixTable samples a transaction type by binary search over cumulative
// weights, as core's manager does.
type mixTable struct {
	cum   []float64
	total float64
}

func newMixTable(weights []float64) mixTable {
	t := mixTable{cum: make([]float64, len(weights))}
	for i, w := range weights {
		t.total += max(w, 0)
		t.cum[i] = t.total
	}
	return t
}

func (t mixTable) sample(rng *rand.Rand) int {
	if t.total <= 0 {
		return 0
	}
	r := rng.Float64() * t.total
	i := sort.SearchFloat64s(t.cum, r)
	for i < len(t.cum)-1 && t.cum[i] <= r {
		i++
	}
	return i
}

// clientRNGs derives a client's three random streams from the workload
// seed. Type sampling has a stream of its own so that the sequence of
// transaction types is a function of the seed alone, whatever the
// procedures draw for parameters and however often conflicts force retries.
func clientRNGs(seed int64, id int) (mix, param, backoff *rand.Rand) {
	base := seed*1_000_003 + int64(id)*104_729
	return rand.New(rand.NewSource(base + 1)), rand.New(rand.NewSource(base + 2)), rand.New(rand.NewSource(base + 3))
}

// poissonSchedule returns the intended arrival offsets of an open-loop run:
// exponential gaps at rate per second, up to dur.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed*7_919 + 17))
	out := make([]time.Duration, 0, int(rate*dur.Seconds()*1.1)+16)
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		out = append(out, t)
	}
}

// tally is one client's outcome counts and latency histograms.
type tally struct {
	txns      int64 // transactions issued
	committed int64 // committed, or rolled back by design (core.ErrExpectedAbort)
	aborted   int64 // retryable abort on the last allowed attempt
	errored   int64 // non-retryable error
	attempts  int64
	waitDie   int64 // attempts aborted by 2PL wait-die
	conflict  int64 // attempts aborted by MVCC first-updater-wins
	backoffNS int64
	firstErr  error

	lat   hist   // intended start to outcome, every transaction
	win   []hist // the same, per latency window of intended start times
	queue hist   // open loop: scheduled arrival to pick-up
	late  hist   // open loop: wake-up minus scheduled arrival, when the client slept for it
}

func (t *tally) merge(o *tally) {
	t.txns += o.txns
	t.committed += o.committed
	t.aborted += o.aborted
	t.errored += o.errored
	t.attempts += o.attempts
	t.waitDie += o.waitDie
	t.conflict += o.conflict
	t.backoffNS += o.backoffNS
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.lat.merge(&o.lat)
	if t.win == nil {
		t.win = make([]hist, len(o.win))
	}
	for i := range o.win {
		t.win[i].merge(&o.win[i])
	}
	t.queue.merge(&o.queue)
	t.late.merge(&o.late)
}

// latWindow is the span of intended start times whose latencies form one
// window. At tpcc-lock's ~1000 transactions per second a window holds about
// 2000, twenty of them beyond its 99th percentile.
const latWindow = 2 * time.Second

// loadSpec describes one timed load phase.
type loadSpec struct {
	clients int
	dur     time.Duration
	rate    float64 // open-loop arrivals per second; 0 runs closed loop
	seed    int64
	trace   bool
}

// loadResult is what one phase measured from the client side.
type loadResult struct {
	tally
	unissued int64         // open-loop arrivals never issued before the hard stop
	window   time.Duration // phase start to last completion
	tracers  []*tracer     // nil when untraced
}

// client is one load-generating goroutine with its own connection.
type client struct {
	id     int
	conn   *dbdriver.Conn
	procs  []core.Procedure
	mix    mixTable
	mixRNG *rand.Rand
	prmRNG *rand.Rand
	bkRNG  *rand.Rand
	rec    stats.Recorder
	tr     *tracer
	base   time.Time
	seq    uint64
	t      tally
}

// runLoad drives db with spec.clients clients, each doing what
// core.Manager's workers do, and returns their merged outcome. In closed
// loop each client issues its next transaction when the previous one ends,
// until spec.dur has passed. In open loop the clients share one seeded
// Poisson schedule; a transaction's clock starts at its scheduled arrival,
// so time spent waiting for a free client counts.
func runLoad(db *dbdriver.DB, b core.Benchmark, col *stats.Collector, spec loadSpec) *loadResult {
	procs := b.Procedures()
	mix := newMixTable(b.DefaultMix())
	var sched []time.Duration
	if spec.rate > 0 {
		sched = poissonSchedule(spec.seed, spec.rate, spec.dur)
	}
	clients := make([]*client, spec.clients)
	for i := range clients {
		c := &client{id: i, conn: db.Connect(), procs: procs, mix: mix, rec: col.Recorder(i)}
		c.t.win = make([]hist, int(spec.dur/latWindow))
		c.mixRNG, c.prmRNG, c.bkRNG = clientRNGs(spec.seed, i)
		clients[i] = c
	}
	res := &loadResult{}
	base := time.Now()
	for _, c := range clients {
		c.base = base
		if spec.trace {
			c.tr = newTracer(base)
			res.tracers = append(res.tracers, c.tr)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			if sched == nil {
				c.closedLoop(base.Add(spec.dur))
			} else {
				// Past three run lengths the engine is hopelessly behind the
				// schedule; stop and count the rest as never issued.
				c.openLoop(sched, &next, base.Add(3*spec.dur))
			}
		}(c)
	}
	wg.Wait()
	res.window = time.Since(base)
	for _, c := range clients {
		res.merge(&c.t)
		// Close rolls back an open transaction, which cannot exist here:
		// every attempt ends in Commit or Rollback.
		_ = c.conn.Close()
	}
	if sched != nil {
		res.unissued = int64(len(sched)) - res.txns
	}
	return res
}

func (c *client) closedLoop(deadline time.Time) {
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		c.txn(now, now, false)
	}
}

func (c *client) openLoop(sched []time.Duration, next *atomic.Int64, hardStop time.Time) {
	for {
		i := next.Add(1) - 1
		if i >= int64(len(sched)) {
			return
		}
		due := c.base.Add(sched[i])
		now := time.Now()
		if now.After(hardStop) {
			return
		}
		if wait := due.Sub(now); wait > 0 {
			time.Sleep(wait)
			now = time.Now()
			c.t.late.add(now.Sub(due))
		}
		c.t.queue.add(now.Sub(due))
		c.txn(due, now, true)
	}
}

// txn runs one transaction with core's retry rule and records its outcome.
// intended is when the transaction was due; pickup is when this client
// started on it.
func (c *client) txn(intended, pickup time.Time, queued bool) {
	typeIdx := c.mix.sample(c.mixRNG)
	p := &c.procs[typeIdx]
	tr := c.tr
	var id uint64
	root := int32(-1)
	if tr != nil {
		c.seq++
		id = uint64(c.id)<<40 | c.seq
		root = tr.open(spanTxn, id, -1, int64(intended.Sub(tr.base)))
		if queued {
			q := tr.open(spanQueue, id, root, int64(intended.Sub(tr.base)))
			tr.at(q).end = int64(pickup.Sub(tr.base))
		}
	}
	c.t.txns++
	status := stats.StatusOK
	for attempt := 0; ; attempt++ {
		err := c.once(p, id, root)
		c.t.attempts++
		switch {
		case err == nil, errors.Is(err, core.ErrExpectedAbort):
		case dbdriver.IsRetryable(err):
			if errors.Is(err, txn.ErrDeadlock) {
				c.t.waitDie++
			} else if errors.Is(err, txn.ErrWriteConflict) {
				c.t.conflict++
			}
			if attempt < maxRetries {
				c.record(typeIdx, stats.StatusRetry, 0, id, root)
				backoff := time.Duration(100<<uint(attempt)) * time.Microsecond
				d := time.Duration(c.bkRNG.Int63n(int64(backoff) + 1))
				var s int32
				if tr != nil {
					s = tr.open(spanBackoff, id, root, tr.now())
				}
				t0 := time.Now()
				time.Sleep(d)
				c.t.backoffNS += int64(time.Since(t0))
				if tr != nil {
					tr.close(s)
				}
				continue
			}
			status = stats.StatusAborted
		default:
			status = stats.StatusError
			if c.t.firstErr == nil {
				c.t.firstErr = err
			}
		}
		break
	}
	lat := time.Since(intended)
	c.record(typeIdx, status, lat, id, root)
	c.t.lat.add(lat)
	if w := int(intended.Sub(c.base) / latWindow); w < len(c.t.win) {
		c.t.win[w].add(lat)
	}
	switch status {
	case stats.StatusOK:
		c.t.committed++
	case stats.StatusAborted:
		c.t.aborted++
	default:
		c.t.errored++
	}
	if tr != nil {
		tr.close(root)
	}
}

// once brackets one attempt with Begin and Commit, or Rollback when the
// procedure fails.
func (c *client) once(p *core.Procedure, id uint64, root int32) error {
	tr := c.tr
	var s int32
	if tr != nil {
		s = tr.open(spanBegin, id, root, tr.now())
	}
	var err error
	if p.ReadOnly {
		err = c.conn.BeginReadOnly()
	} else {
		err = c.conn.Begin()
	}
	if tr != nil {
		tr.close(s)
	}
	if err != nil {
		return err
	}
	if tr != nil {
		s = tr.open(spanExec, id, root, tr.now())
	}
	err = p.Fn(c.conn, c.prmRNG)
	if tr != nil {
		tr.close(s)
	}
	if err != nil {
		if tr != nil {
			s = tr.open(spanRollback, id, root, tr.now())
		}
		// The procedure's error decides the outcome; a rollback failure
		// would surface on the next Begin, as in core.Manager.
		_ = c.conn.Rollback()
		if tr != nil {
			tr.close(s)
		}
		return err
	}
	if tr != nil {
		s = tr.open(spanCommit, id, root, tr.now())
	}
	err = c.conn.Commit()
	if tr != nil {
		tr.close(s)
	}
	return err
}

func (c *client) record(typeIdx int, status stats.Status, lat time.Duration, id uint64, root int32) {
	if tr := c.tr; tr != nil {
		s := tr.open(spanRecord, id, root, tr.now())
		c.rec.Record(typeIdx, status, lat)
		tr.close(s)
		return
	}
	c.rec.Record(typeIdx, status, lat)
}
