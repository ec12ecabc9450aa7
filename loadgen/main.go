// Command loadgen is the repository's benchmark: one process drives the
// embedded engine through the public driver surface (core.Prepare, then
// Conn.Begin, Procedure.Fn and Conn.Commit with core's retry rule, recorded
// through stats) and prints end-to-end metrics, or with -trace 1 per-layer
// metrics from a traced run. README.md in this directory documents the
// workloads and every metric.
//
//	go run . -workload ycsb-mvcc -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// A failed correctness check prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
	"benchpress/internal/sqldb/storage/heap"
	"benchpress/internal/stats"
)

const (
	// An end-to-end run prepares the database at least minSetups times,
	// and more while their total stays under setupBudget (at most
	// maxSetups); setup_s is the median. Short set-ups repeat more, so
	// that their median is as steady as that of long ones.
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
	// warmup runs closed loop on the prepared database before the timed
	// window, so statement compilation and first-touch costs stay out of it.
	warmup = 500 * time.Millisecond
	// warmupSeed seeds the warm-up's streams whatever -seed says. The
	// engine's speed for the rest of a run depends on its early history:
	// on ycsb-mvcc, some warm-up streams leave it making ~4% more
	// allocations per transaction and ~8% less throughput for the whole
	// window. A fixed warm-up starts every run from the same history.
	warmupSeed = 0
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
	clients  int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: transaction types, parameters and load data")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed window")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "loadgen"), "directory for data dirs and span files")
	flag.Parse()
	o.trace = *traceFlag == 1
	// One client per CPU, two at most: the load comes from this process
	// and must not outnumber the processors it shares with the engine.
	o.clients = min(2, runtime.NumCPU())
	w, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "usage: loadgen -workload {%s} -seed N -seconds N -trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fatal(err)
	}
	fmt.Printf("# loadgen workload=%s seed=%d seconds=%d trace=%d clients=%d engine=%s\n",
		o.workload, o.seed, o.seconds, *traceFlag, o.clients, w.engine)
	var out *result
	var err error
	if o.trace {
		out, err = runTraced(w, o)
	} else {
		out, err = runEndToEnd(w, o)
	}
	if err != nil {
		fatal(err)
	}
	out.print()
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// arm is one prepared database driven through one timed window, with the
// counters read around it and the correctness checks made after it.
type arm struct {
	setups   []time.Duration
	rows     int // rows after set-up
	load     *loadResult
	col      *stats.Collector
	stats    *spanStats // traced arms only
	d        counters   // counter deltas over the timed window
	heapLive uint64
	heapPeak uint64
	recovery time.Duration // disk workloads: reopen wall time
	problems []string
}

func (a *arm) committed() float64 { return float64(a.load.committed) }
func (a *arm) tps() float64       { return a.committed() / a.load.window.Seconds() }

// perTxn returns v per committed transaction.
func (a *arm) perTxn(v float64) float64 { return ratio(v, a.committed()) }

// runArm sets the workload up, repeatedly when repeat is set (keeping the
// last database), warms it, drives one timed window and checks the result.
func runArm(w workload, o options, repeat, traced bool) (*arm, error) {
	a := &arm{}
	dataDir := filepath.Join(o.work, "data")
	var db *dbdriver.DB
	var b core.Benchmark
	defer func() {
		if db != nil {
			db.Close()
		}
		if w.disk {
			_ = os.RemoveAll(dataDir) // scratch; a leftover dir is removed by the next run
		}
	}()
	var total time.Duration
	for len(a.setups) == 0 || repeat && (len(a.setups) < minSetups || total < setupBudget && len(a.setups) < maxSetups) {
		if db != nil {
			db.Close()
			db = nil
		}
		runtime.GC()
		var d time.Duration
		var err error
		db, b, d, err = w.setup(dataDir, o.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		a.setups = append(a.setups, d)
		total += d
	}
	a.rows = db.Engine().RowCount()
	names := procNames(b)
	runLoad(db, b, stats.NewCollector(names), loadSpec{clients: o.clients, dur: warmup, seed: warmupSeed})

	col := stats.NewCollector(names)
	a.col = col
	spec := loadSpec{clients: o.clients, dur: time.Duration(o.seconds) * time.Second, seed: o.seed, trace: traced}
	var stopPeak func() uint64
	if traced {
		stopPeak = sampleHeapPeak()
	}
	// Collect the set-up's garbage now, so that every window starts at the
	// same point of the collector's cycle and its cycles come from the
	// workload's own allocation.
	runtime.GC()
	before := readCounters(db)
	a.load = runLoad(db, b, col, spec)
	after := readCounters(db)
	if traced {
		a.heapPeak = stopPeak()
	}
	a.d = after.sub(before)
	if traced {
		a.stats = summarize(a.load.tracers)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.heapLive = ms.HeapAlloc

	// Correctness: no non-retryable error, some commits, the collector
	// agrees with the driver, and the workload's own data checks hold.
	ld := a.load
	if ld.errored > 0 {
		a.problems = append(a.problems, fmt.Sprintf("%d non-retryable errors, first: %v", ld.errored, ld.firstErr))
	}
	if ld.committed == 0 {
		a.problems = append(a.problems, "no transaction committed")
	}
	if got := col.Committed(); got != ld.committed {
		a.problems = append(a.problems, fmt.Sprintf("stats collector counted %d commits, driver %d", got, ld.committed))
	}
	if w.check != nil {
		conn := db.Connect()
		err := w.check(conn)
		if cerr := conn.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			a.problems = append(a.problems, err.Error())
		}
	}
	if w.disk {
		took, err := w.reopenCheck(db, dataDir)
		db = nil // reopenCheck closed it
		a.recovery = took
		if err != nil {
			a.problems = append(a.problems, "recovery: "+err.Error())
		}
	}
	return a, nil
}

func procNames(b core.Benchmark) []string {
	var names []string
	for _, p := range b.Procedures() {
		names = append(names, p.Name)
	}
	return names
}

// counters are the process and engine totals read around a timed window.
type counters struct {
	cpu      time.Duration
	mallocs  uint64
	wal      [3]uint64 // records, flushes, bytes
	pool     heap.PoolStats
	gcCPU    float64 // seconds
	allCPU   float64 // seconds, as the runtime accounts them
	gcCycles uint64
}

// sub returns c minus before.
func (c counters) sub(before counters) counters {
	d := counters{
		cpu:     c.cpu - before.cpu,
		mallocs: c.mallocs - before.mallocs,
		pool: heap.PoolStats{
			Hits:      c.pool.Hits - before.pool.Hits,
			Misses:    c.pool.Misses - before.pool.Misses,
			Evictions: c.pool.Evictions - before.pool.Evictions,
			Flushes:   c.pool.Flushes - before.pool.Flushes,
		},
		gcCPU:    c.gcCPU - before.gcCPU,
		allCPU:   c.allCPU - before.allCPU,
		gcCycles: c.gcCycles - before.gcCycles,
	}
	for i := range d.wal {
		d.wal[i] = c.wal[i] - before.wal[i]
	}
	return d
}

var counterMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/gc/cycles/total:gc-cycles"}

func readCounters(db *dbdriver.DB) counters {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	if l := db.Engine().WAL(); l != nil {
		c.wal = [3]uint64{l.Records(), l.Flushes(), l.Bytes()}
	}
	c.pool, _ = db.Engine().DiskPoolStats()
	s := make([]metrics.Sample, len(counterMetrics))
	for i, name := range counterMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	c.gcCPU, c.allCPU, c.gcCycles = s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
	return c
}

// sampleHeapPeak samples the Go heap every 10 ms until the returned stop
// function is called, which returns the highest reading.
func sampleHeapPeak() (stop func() uint64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-tick.C:
			case <-done:
				return
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		return peak
	}
}

// result is the run's final report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
	problems  []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(a ...*arm) *result {
	r := &result{Metrics: map[string]metric{}}
	for _, x := range a {
		r.problems = append(r.problems, x.problems...)
	}
	r.Correct = len(r.problems) == 0
	return r
}

// counts sets attempted and failed from the arm the metrics describe.
// Failed counts transactions that ended in a non-retryable error and
// open-loop arrivals never issued; concurrency aborts that exhaust the
// retries are part of the workload and show in success_share.
func (r *result) counts(a *arm) {
	r.Attempted = a.load.txns + a.load.unissued
	r.Failed = a.load.errored + a.load.unissued
}

func (r *result) add(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

func (r *result) print() {
	for _, n := range r.order {
		m := r.Metrics[n]
		fmt.Printf("%-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// medianOf returns the median of v (the mean of the middle two when even).
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(w workload, o options) (*result, error) {
	a, err := runArm(w, o, true, false)
	if err != nil {
		return nil, err
	}
	ld := a.load
	fmt.Printf("# setups_s=%v committed=%d aborted=%d errored=%d unissued=%d window_s=%.3f latency_samples=%d recovery_ms=%.3f\n",
		a.setups, ld.committed, ld.aborted, ld.errored, ld.unissued, ld.window.Seconds(), ld.lat.n,
		float64(a.recovery)/1e6)
	fmt.Printf("# latency_ms mid=%.4f", ld.lat.midMeanUS()/1e3)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		fmt.Printf(" p%g=%.4f", 100*q, ld.lat.quantileUS(q)/1e3)
	}
	fmt.Println()
	fmt.Print("# window_p99_ms")
	for i := range ld.win {
		fmt.Printf(" %.2f", ld.win[i].quantileUS(0.99)/1e3)
	}
	fmt.Println()
	for i, name := range a.col.Types() {
		s := a.col.TypeSummary(i)
		fmt.Printf("# type %-16s committed=%-8d p50_us=%-6d p99_us=%d\n", name, s.Count, s.P50.Microseconds(), s.P99.Microseconds())
	}
	r := newResult(a)
	r.counts(a)
	setups := make([]float64, len(a.setups))
	for i, d := range a.setups {
		setups[i] = d.Seconds()
	}
	r.add("setup_s", "s", medianOf(setups))
	r.add("tps", "txn/s", a.tps())
	r.add("lat_mid_ms", "ms", ld.lat.midMeanUS()/1e3)
	r.add("lat_p99_ms", "ms", windowP99US(ld)/1e3)
	r.add("success_share", "ratio", a.committed()/float64(r.Attempted))
	r.add("cpu_us_per_txn", "us", a.perTxn(float64(a.d.cpu)/1e3))
	r.add("allocs_per_txn", "count", a.perTxn(float64(a.d.mallocs)))
	r.add("heap_live_mb", "MiB", float64(a.heapLive)/(1<<20))
	return r, nil
}

// runTraced makes two arms on fresh databases, one untraced and one traced,
// in an order that alternates with the seed, and reports the per-layer
// metrics of the traced arm plus the difference between the two.
func runTraced(w workload, o options) (*result, error) {
	var plain, traced *arm
	for i := 0; i < 2; i++ {
		doTrace := (i == 0) == (o.seed%2 != 0)
		a, err := runArm(w, o, false, doTrace)
		if err != nil {
			return nil, err
		}
		if doTrace {
			traced = a
			path := filepath.Join(o.work, "spans-"+o.workload+".tsv")
			if err := writeSpans(path, a.load.tracers); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
			fmt.Printf("# spans written to %s\n", path)
			a.load.tracers = nil
		} else {
			plain = a
		}
		runtime.GC()
	}
	ld, st := traced.load, traced.stats
	fmt.Printf("# traced: tps=%.1f lat_mid_ms=%.4f lat_p99_ms=%.4f; untraced: tps=%.1f lat_mid_ms=%.4f lat_p99_ms=%.4f\n",
		traced.tps(), ld.lat.midMeanUS()/1e3, windowP99US(ld)/1e3,
		plain.tps(), plain.load.lat.midMeanUS()/1e3, windowP99US(plain.load)/1e3)
	r := newResult(plain, traced)
	r.counts(traced)
	txns := float64(ld.txns)
	win := ld.window.Seconds()

	r.add("loadgen.queue_us_p50", "us", ld.queue.quantileUS(0.50))
	r.add("loadgen.queue_us_p99", "us", ld.queue.quantileUS(0.99))
	r.add("loadgen.late_ms_p99", "ms", ld.late.quantileUS(0.99)/1e3)
	r.add("loadgen.self_us_mean", "us", st.self.meanUS())
	r.add("loadgen.trace_tps_cost", "ratio", 1-traced.tps()/plain.tps())
	r.add("loadgen.trace_mid_cost", "ratio", ld.lat.midMeanUS()/plain.load.lat.midMeanUS()-1)
	r.add("dbdriver.begin_us_mean", "us", st.dur[spanBegin].meanUS())
	r.add("sqldb.exec_us_mean", "us", st.dur[spanExec].meanUS())
	r.add("sqldb.exec_us_p99", "us", st.dur[spanExec].quantileUS(0.99))
	r.add("wal.commit_us_mean", "us", st.dur[spanCommit].meanUS())
	r.add("wal.commit_us_p99", "us", st.dur[spanCommit].quantileUS(0.99))
	r.add("wal.records_per_flush", "count", ratio(float64(traced.d.wal[0]), float64(traced.d.wal[1])))
	r.add("wal.bytes_per_txn", "B", traced.perTxn(float64(traced.d.wal[2])))
	r.add("wal.flushes_per_s", "1/s", float64(traced.d.wal[1])/win)
	r.add("recover_us_per_txn", "us", traced.perTxn(float64(traced.recovery)/1e3))
	r.add("txn.attempts_per_txn", "count", ratio(float64(ld.attempts), txns))
	r.add("txn.useful_share", "ratio", ratio(float64(ld.committed), float64(ld.attempts)))
	r.add("txn.waitdie_per_ktxn", "count", ratio(1000*float64(ld.waitDie), txns))
	r.add("txn.conflict_per_ktxn", "count", ratio(1000*float64(ld.conflict), txns))
	r.add("txn.backoff_us_mean", "us", ratio(float64(ld.backoffNS)/1e3, txns))
	p := traced.d.pool
	r.add("heap.hit_share", "ratio", ratio(float64(p.Hits), float64(p.Hits+p.Misses)))
	r.add("heap.evictions_per_txn", "count", traced.perTxn(float64(p.Evictions)))
	r.add("heap.page_writes_per_txn", "count", traced.perTxn(float64(p.Flushes)))
	r.add("stats.record_ns_mean", "ns", st.dur[spanRecord].meanUS()*1e3)
	r.add("gc.cpu_share", "ratio", ratio(traced.d.gcCPU, traced.d.allCPU))
	r.add("gc.heap_peak_mb", "MiB", float64(traced.heapPeak)/(1<<20))
	r.add("gc.cycles_per_s", "1/s", float64(traced.d.gcCycles)/win)
	r.add("core.load_rows_per_s", "rows/s", float64(traced.rows)/traced.setups[0].Seconds())
	return r, nil
}

// windowP99US returns the median over the load's full latency windows of
// each window's 99th percentile, or the whole run's when the run is shorter
// than one window. A whole-run p99 is set by the one or two GC mark phases
// a window happens to contain; a typical window's is not.
func windowP99US(ld *loadResult) float64 {
	if len(ld.win) == 0 {
		return ld.lat.quantileUS(0.99)
	}
	v := make([]float64, len(ld.win))
	for i := range ld.win {
		v[i] = ld.win[i].quantileUS(0.99)
	}
	return medianOf(v)
}

// ratio returns a/b, or 0 when b is 0 (the layer saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
