package main

import (
	"context"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"benchpress/internal/benchmarks/ycsb"
	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
	"benchpress/internal/stats"
)

func TestSelfTime(t *testing.T) {
	root := span{parent: -1, start: 0, end: 100}
	children := []span{
		{start: 50, end: 60},
		{start: 10, end: 30},
		{start: 20, end: 40},  // overlaps the previous child
		{start: 90, end: 120}, // runs past the parent's end
		{start: 55, end: 58},  // nested inside another child
		{start: -5, end: 5},   // starts before the parent
	}
	// Covered: [0,5] + [10,40] + [50,60] + [90,100] = 5+30+10+10 = 55.
	if got := selfTime(root, children); got != 45 {
		t.Fatalf("selfTime = %d, want 45", got)
	}
	if got := selfTime(root, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
}

func TestSummarizeGroupsSpansByTransaction(t *testing.T) {
	tr := tracerOf([]span{
		{txn: 1, parent: -1, kind: spanTxn, start: 0, end: 100},
		{txn: 1, parent: 0, kind: spanBegin, start: 10, end: 20},
		{txn: 1, parent: 0, kind: spanExec, start: 20, end: 70},
		{txn: 1, parent: 0, kind: spanCommit, start: 70, end: 90},
		{txn: 2, parent: -1, kind: spanTxn, start: 100, end: 150},
		{txn: 2, parent: 4, kind: spanExec, start: 100, end: 140},
	})
	st := summarize([]*tracer{tr})
	if st.self.n != 2 {
		t.Fatalf("self samples = %d, want 2", st.self.n)
	}
	// Self times are 20 ns and 10 ns.
	if got := st.self.meanUS() * 1e3; math.Abs(got-15) > 1e-9 {
		t.Fatalf("mean self time = %v ns, want 15", got)
	}
	if st.dur[spanExec].n != 2 || st.dur[spanCommit].n != 1 {
		t.Fatalf("exec spans %d, commit spans %d", st.dur[spanExec].n, st.dur[spanCommit].n)
	}
}

// tracerOf records the given spans through the tracer's own methods.
func tracerOf(spans []span) *tracer {
	tr := newTracer(time.Now())
	for _, s := range spans {
		tr.at(tr.open(s.kind, s.txn, s.parent, s.start)).end = s.end
	}
	return tr
}

func TestTracerChunks(t *testing.T) {
	tr := newTracer(time.Now())
	n := int32(3<<chunkBits + 5)
	for i := int32(0); i < n; i++ {
		if got := tr.open(spanExec, uint64(i), i-1, int64(i)); got != i {
			t.Fatalf("open returned %d, want %d", got, i)
		}
	}
	for _, i := range []int32{0, 1<<chunkBits - 1, 1 << chunkBits, n - 1} {
		if s := tr.at(i); s.txn != uint64(i) || s.parent != i-1 || s.start != int64(i) {
			t.Fatalf("span %d reads back as %+v", i, *s)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 1; i <= 100000; i++ {
		h.add(time.Duration(i) * time.Microsecond / 10) // 0.1 us .. 10 ms
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
		want := q * 10000 // us
		if got := h.quantileUS(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%v = %v us, want %v within 1%%", q, got, want)
		}
	}
	// The interquartile mean of a uniform distribution is its midpoint.
	if got := h.midMeanUS(); math.Abs(got-5000)/5000 > 0.01 {
		t.Errorf("midMean = %v us, want 5000 within 1%%", got)
	}
	for i := 0; i < histBuckets; i++ {
		lo, w := histBounds(i)
		if histIndex(lo) != i || histIndex(lo+w-1) != i {
			t.Fatalf("bucket %d: bounds [%d,+%d) map to %d and %d", i, lo, w, histIndex(lo), histIndex(lo+w-1))
		}
	}
}

func typeSequence(seed int64, id, n int) []int {
	mixRNG, _, _ := clientRNGs(seed, id)
	m := newMixTable(ycsb.New(0.01).DefaultMix())
	out := make([]int, n)
	for i := range out {
		out[i] = m.sample(mixRNG)
	}
	return out
}

func TestSeedDeterminism(t *testing.T) {
	a, b := poissonSchedule(7, 600, 10*time.Second), poissonSchedule(7, 600, 10*time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different Poisson schedules")
	}
	if slices.Equal(a, poissonSchedule(8, 600, 10*time.Second)) {
		t.Fatal("different seeds gave the same Poisson schedule")
	}
	if n := len(a); n < 5400 || n > 6600 {
		t.Fatalf("schedule has %d arrivals in 10 s at 600/s", n)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("schedule is not in time order")
	}
	for id := 0; id < 2; id++ {
		if !slices.Equal(typeSequence(7, id, 1000), typeSequence(7, id, 1000)) {
			t.Fatalf("client %d: same seed gave different type sequences", id)
		}
		if slices.Equal(typeSequence(7, id, 1000), typeSequence(8, id, 1000)) {
			t.Fatalf("client %d: different seeds gave the same type sequence", id)
		}
	}
	if slices.Equal(typeSequence(7, 0, 1000), typeSequence(7, 1, 1000)) {
		t.Fatal("two clients drew the same type sequence")
	}
}

// prepared opens gomvcc with YCSB loaded at the given scale.
func prepared(t *testing.T, scale float64) (*dbdriver.DB, core.Benchmark) {
	t.Helper()
	db, err := dbdriver.Open("gomvcc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	b := ycsb.New(scale)
	if err := core.Prepare(b, db, 1); err != nil {
		t.Fatal(err)
	}
	return db, b
}

func TestTracedRunRecordsEveryBoundary(t *testing.T) {
	db, b := prepared(t, 0.05)
	col := stats.NewCollector(procNames(b))
	res := runLoad(db, b, col, loadSpec{clients: 2, dur: 200 * time.Millisecond, seed: 3, trace: true})
	if res.txns == 0 || res.errored != 0 {
		t.Fatalf("txns=%d errored=%d (%v)", res.txns, res.errored, res.firstErr)
	}
	st := summarize(res.tracers)
	if st.dur[spanTxn].n != res.txns || st.self.n != res.txns {
		t.Fatalf("%d root spans, %d self samples, %d transactions", st.dur[spanTxn].n, st.self.n, res.txns)
	}
	if st.dur[spanBegin].n != res.attempts || st.dur[spanExec].n != res.attempts {
		t.Fatalf("%d begin and %d exec spans for %d attempts", st.dur[spanBegin].n, st.dur[spanExec].n, res.attempts)
	}
	// One record per outcome plus one per retry, as core.Manager records.
	if want := res.attempts; st.dur[spanRecord].n != want {
		t.Fatalf("%d record spans, want %d", st.dur[spanRecord].n, want)
	}
	if got := col.Committed(); got != res.committed {
		t.Fatalf("collector committed %d, driver %d", got, res.committed)
	}
}

func TestOpenLoopFollowsSchedule(t *testing.T) {
	db, b := prepared(t, 0.05)
	spec := loadSpec{clients: 2, dur: 500 * time.Millisecond, rate: 400, seed: 5}
	res := runLoad(db, b, stats.NewCollector(procNames(b)), spec)
	want := int64(len(poissonSchedule(spec.seed, spec.rate, spec.dur)))
	if res.txns != want || res.unissued != 0 {
		t.Fatalf("issued %d of %d scheduled arrivals (%d unissued)", res.txns, want, res.unissued)
	}
	if res.queue.n != res.txns {
		t.Fatalf("%d queue samples for %d transactions", res.queue.n, res.txns)
	}
	// The schedule spans the window, so the run cannot end much earlier.
	if res.window < spec.dur*8/10 {
		t.Fatalf("open-loop run ended after %v of a %v schedule", res.window, spec.dur)
	}
}

// TestDriverParity runs the untraced closed-loop driver and core.Manager on
// ycsb-mvcc back to back, alternating which goes first, and requires the
// median of the paired throughput ratios to be within a tenth of 1: the
// benchmark must measure the engine, not its own loop. Pairing runs that
// are adjacent in time keeps a shared host's speed swings out of the ratio.
func TestDriverParity(t *testing.T) {
	if testing.Short() {
		t.Skip("timed comparison")
	}
	const pairs, dur, seed = 10, time.Second, 11
	driver := func() float64 {
		db, b := prepared(t, 1)
		defer db.Close()
		res := runLoad(db, b, stats.NewCollector(procNames(b)), loadSpec{clients: 2, dur: dur, seed: seed})
		return float64(res.committed) / res.window.Seconds()
	}
	manager := func() float64 {
		db, b := prepared(t, 1)
		defer db.Close()
		m := core.NewManager(b, db, []core.Phase{{Duration: dur}}, core.Options{Terminals: 2, Seed: seed})
		t0 := time.Now()
		if err := m.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return float64(m.Collector().Committed()) / time.Since(t0).Seconds()
	}
	ratios := make([]float64, pairs)
	for i := range ratios {
		var d, m float64
		if i%2 == 0 {
			d, m = driver(), manager()
		} else {
			m, d = manager(), driver()
		}
		ratios[i] = d / m
	}
	r := medianOf(ratios)
	t.Logf("driver/manager tps ratios %.3f, median %.3f", ratios, r)
	if math.Abs(r-1) > 0.1 {
		t.Fatalf("driver throughput is %.1f%% of the manager's, want within 10%%", 100*r)
	}
}
