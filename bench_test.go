// Package benchpress_test is the benchmark harness that regenerates every
// table and figure of the paper (DESIGN.md experiment index) as testing.B
// targets, plus the ablation benches for the design choices DESIGN.md calls
// out. Throughput numbers are attached via b.ReportMetric, so
// `go test -bench=. -benchmem` prints the same series EXPERIMENTS.md records.
package benchpress_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	_ "benchpress/internal/benchmarks/all"
	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
	"benchpress/internal/experiments"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/stats"
	"benchpress/internal/trace"
	"benchpress/internal/wal"
)

// T1: Table 1 — every benchmark loads and runs; one bench per engine keeps
// output rows aligned with the table's columns.
func benchmarkTable1(b *testing.B, engine string) {
	opts := experiments.QuickOptions()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(opts, engine)
		if err != nil {
			b.Fatal(err)
		}
		var total float64
		for _, r := range rows {
			total += r.TPS
		}
		b.ReportMetric(total/float64(len(rows)), "mean-tps")
	}
}

func BenchmarkTable1_goserial(b *testing.B) { benchmarkTable1(b, "goserial") }
func BenchmarkTable1_golock(b *testing.B)   { benchmarkTable1(b, "golock") }
func BenchmarkTable1_gomvcc(b *testing.B)   { benchmarkTable1(b, "gomvcc") }

// F2: Figure 2 — the scripted game session (select benchmark, select DBMS,
// play, change mixture).
func BenchmarkFig2_GameSession(b *testing.B) {
	opts := experiments.QuickOptions()
	opts.Duration = 3 * time.Second
	for i := 0; i < b.N; i++ {
		steps, res, err := experiments.Fig2Session("ycsb", "gomvcc", opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(steps) == 0 {
			b.Fatal("empty session transcript")
		}
		b.ReportMetric(float64(res.Score), "score")
	}
}

// E-RATE: Section 2.2.1 — rate-control precision per arrival distribution.
func benchmarkRateControl(b *testing.B, exponential bool) {
	opts := experiments.QuickOptions()
	opts.Duration = time.Second
	const target = 1000.0
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RateControl(opts, []float64{target})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Exponential != exponential {
				continue
			}
			if !p.NeverExceeded {
				b.Fatalf("target %.0f exceeded", p.Target)
			}
			b.ReportMetric(p.MeasuredTPS, "measured-tps")
			b.ReportMetric(p.Target, "target-tps")
		}
	}
}

func BenchmarkRateControl_Uniform(b *testing.B)     { benchmarkRateControl(b, false) }
func BenchmarkRateControl_Exponential(b *testing.B) { benchmarkRateControl(b, true) }

// E-MIX: Sections 2.2.2 / 4.1.2 — the read-heavy mixture boost under the
// locking engine.
func BenchmarkMixture_ReadHeavyBoost(b *testing.B) {
	opts := experiments.QuickOptions()
	opts.Duration = 600 * time.Millisecond
	for i := 0; i < b.N; i++ {
		res, err := experiments.MixtureFlip(opts, "golock")
		if err != nil {
			b.Fatal(err)
		}
		byName := map[string]experiments.MixturePhaseResult{}
		for _, r := range res {
			byName[r.Phase] = r
		}
		b.ReportMetric(byName["write-heavy"].TPS, "writeheavy-tps")
		b.ReportMetric(byName["read-only"].TPS, "readonly-tps")
		if byName["read-only"].TPS <= byName["write-heavy"].TPS {
			b.Fatalf("read-only (%.0f) did not beat write-heavy (%.0f)",
				byName["read-only"].TPS, byName["write-heavy"].TPS)
		}
	}
}

// E-TEN: Section 2.2.3 — multi-tenant interference on one instance.
func BenchmarkMultiTenancy_Interference(b *testing.B) {
	opts := experiments.QuickOptions()
	opts.Duration = 1200 * time.Millisecond
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiTenancy(opts, "golock")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[0].TPSAlonePhase, "tenantA-quiet-tps")
		b.ReportMetric(res[0].TPSContended, "tenantA-burst-tps")
		b.ReportMetric(res[0].DegradationPct, "degradation-pct")
	}
}

// E-SHAPE: Section 4.1.1 — the four challenge shapes on the MVCC engine.
func benchmarkShape(b *testing.B, shape string) {
	opts := experiments.QuickOptions()
	opts.Duration = 4 * time.Second
	for i := 0; i < b.N; i++ {
		res, err := experiments.PlayShape(shape, "gomvcc", 400, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Score), "score")
		b.ReportMetric(boolMetric(res.Survived), "survived")
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

func BenchmarkShape_Steps(b *testing.B)      { benchmarkShape(b, "steps") }
func BenchmarkShape_Sinusoidal(b *testing.B) { benchmarkShape(b, "sinusoidal") }
func BenchmarkShape_Peak(b *testing.B)       { benchmarkShape(b, "peak") }
func BenchmarkShape_Tunnel(b *testing.B)     { benchmarkShape(b, "tunnel") }

// E-TUN: Section 4.3 — tunnel steadiness per engine (jitter CV).
func BenchmarkTunnelJitter_Engines(b *testing.B) {
	opts := experiments.QuickOptions()
	opts.Duration = 2 * time.Second
	for i := 0; i < b.N; i++ {
		res, err := experiments.TunnelJitter(opts, 300, 40)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			b.ReportMetric(r.JitterCV, r.Engine+"-jitter-cv")
		}
	}
}

// --------------------------------------------------------------- ablations

// Ablation: centralized queue (one manager, N workers) vs local rate
// limiting (N managers, 1 worker each at rate/N). The paper argues the
// centralized queue controls throughput "from one location"; the ablation
// quantifies the conformance difference.
func BenchmarkAblation_QueueVsLocal(b *testing.B) {
	const target = 800.0
	const workers = 4
	dur := 1200 * time.Millisecond
	for i := 0; i < b.N; i++ {
		// Centralized.
		db, err := dbdriver.Open("gomvcc")
		if err != nil {
			b.Fatal(err)
		}
		bench, _ := core.NewBenchmark("ycsb", 0.02)
		if err := core.Prepare(bench, db, 1); err != nil {
			b.Fatal(err)
		}
		m := core.NewManager(bench, db, []core.Phase{{Duration: dur, Rate: target}},
			core.Options{Terminals: workers})
		if err := m.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		central := conformance(m, target)
		db.Close()

		// Local: split the target across independent single-worker managers.
		db2, _ := dbdriver.Open("gomvcc")
		bench2, _ := core.NewBenchmark("ycsb", 0.02)
		if err := core.Prepare(bench2, db2, 1); err != nil {
			b.Fatal(err)
		}
		var locals []*core.Manager
		for w := 0; w < workers; w++ {
			locals = append(locals, core.NewManager(bench2, db2,
				[]core.Phase{{Duration: dur, Rate: target / workers}},
				core.Options{Terminals: 1, Seed: int64(w + 1), Name: nameN("local", w)}))
		}
		if err := core.RunAll(context.Background(), locals...); err != nil {
			b.Fatal(err)
		}
		var localDev float64
		for _, lm := range locals {
			localDev += conformance(lm, target/workers)
		}
		localDev /= workers
		db2.Close()

		b.ReportMetric(central, "central-conformance-dev")
		b.ReportMetric(localDev, "local-conformance-dev")
	}
}

func nameN(prefix string, n int) string { return prefix + string(rune('a'+n)) }

// conformance computes the mean relative deviation of full per-window
// throughput from the target.
func conformance(m *core.Manager, target float64) float64 {
	var series []int
	for _, w := range m.Collector().Windows() {
		series = append(series, int(w.Committed))
	}
	if len(series) > 1 {
		series = series[:len(series)-1] // drop the partial tail window
	}
	return trace.Conformance(series, target)
}

// Ablation: WAL durability policy. Same workload, three commit-latency
// emulations.
func BenchmarkAblation_WALPolicy(b *testing.B) {
	policies := []struct {
		name   string
		policy wal.SyncPolicy
	}{
		{"none", wal.SyncNone},
		{"async", wal.SyncAsync},
		{"group", wal.SyncGroup},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			dbdriver.Register(dbdriver.Personality{
				Name: "ablation-" + p.name, Dialect: "gosql", Mode: txn.MVCC,
				WALPolicy: p.policy, GroupCommitInterval: 500 * time.Microsecond,
			})
			for i := 0; i < b.N; i++ {
				db, err := dbdriver.Open("ablation-" + p.name)
				if err != nil {
					b.Fatal(err)
				}
				bench, _ := core.NewBenchmark("ycsb", 0.02)
				if err := core.Prepare(bench, db, 1); err != nil {
					b.Fatal(err)
				}
				m := core.NewManager(bench, db,
					[]core.Phase{{Duration: 500 * time.Millisecond, Rate: 0,
						Mix: []float64{0, 20, 0, 60, 0, 20}}}, // write-heavy
					core.Options{Terminals: 4})
				if err := m.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(m.Collector().Committed())*2, "write-tps")
				db.Close()
			}
		})
	}
}

// Ablation: index path. The same point query through the primary key vs an
// unindexed column (sequential scan).
func BenchmarkAblation_Index(b *testing.B) {
	db, err := dbdriver.Open("gomvcc")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	c := db.Connect()
	if _, err := c.Exec("CREATE TABLE pts (id INT NOT NULL, grp INT, payload VARCHAR(64), PRIMARY KEY (id))"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if _, err := c.Exec("INSERT INTO pts VALUES (?, ?, 'x')", i, i); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("pk-lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.QueryRow("SELECT payload FROM pts WHERE id = ?", i%5000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("seqscan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.QueryRow("SELECT payload FROM pts WHERE grp = ?", i%5000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Per-engine micro-benchmarks: open-loop YCSB throughput (the level
// difficulty of the game).
func benchmarkEngineYCSB(b *testing.B, engine string) {
	for i := 0; i < b.N; i++ {
		db, err := dbdriver.Open(engine)
		if err != nil {
			b.Fatal(err)
		}
		bench, _ := core.NewBenchmark("ycsb", 0.05)
		if err := core.Prepare(bench, db, 1); err != nil {
			b.Fatal(err)
		}
		dur := 500 * time.Millisecond
		m := core.NewManager(bench, db, []core.Phase{{Duration: dur, Rate: 0}},
			core.Options{Terminals: 4})
		if err := m.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.Collector().Committed())/dur.Seconds(), "tps")
		db.Close()
	}
}

func BenchmarkEngineYCSB_goserial(b *testing.B) { benchmarkEngineYCSB(b, "goserial") }
func BenchmarkEngineYCSB_golock(b *testing.B)   { benchmarkEngineYCSB(b, "golock") }
func BenchmarkEngineYCSB_gomvcc(b *testing.B)   { benchmarkEngineYCSB(b, "gomvcc") }

// E-SCALE: the same open-loop YCSB run with terminals tied to GOMAXPROCS, so
// `go test -bench EngineYCSBScale -cpu 1,2,4,8` sweeps worker counts in one
// invocation and the striped row store's concurrency scaling shows up as the
// tps trend across -cpu columns. On a single-core host the sweep still varies
// offered concurrency; the stripes then buy reduced lock convoying rather
// than parallel speedup.
func benchmarkEngineYCSBScale(b *testing.B, engine string) {
	workers := runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		db, err := dbdriver.Open(engine)
		if err != nil {
			b.Fatal(err)
		}
		bench, _ := core.NewBenchmark("ycsb", 0.05)
		if err := core.Prepare(bench, db, 1); err != nil {
			b.Fatal(err)
		}
		dur := 500 * time.Millisecond
		m := core.NewManager(bench, db, []core.Phase{{Duration: dur, Rate: 0}},
			core.Options{Terminals: workers})
		if err := m.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.Collector().Committed())/dur.Seconds(), "tps")
		b.ReportMetric(float64(workers), "workers")
		db.Close()
	}
}

func BenchmarkEngineYCSBScale_golock(b *testing.B) { benchmarkEngineYCSBScale(b, "golock") }
func BenchmarkEngineYCSBScale_gomvcc(b *testing.B) { benchmarkEngineYCSBScale(b, "gomvcc") }

// E-DISK: the fixed-terminal YCSB run again, disk-resident — the golock
// personality re-registered with a log directory, so every writing commit
// appends one record carrying its rows to wal.log and awaits its group
// flush under the store's commit lock. Reads stay in RAM.
func BenchmarkEngineYCSBDisk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dbdriver.Register(dbdriver.Personality{
			Name: "golock-disk", Dialect: "mysql", Mode: txn.Locking,
			WALPolicy: wal.SyncGroup, GroupCommitInterval: 500 * time.Microsecond,
			VacuumInterval: 5 * time.Millisecond,
			DataDir:        b.TempDir(),
		})
		db, err := dbdriver.Open("golock-disk")
		if err != nil {
			b.Fatal(err)
		}
		bench, _ := core.NewBenchmark("ycsb", 0.05)
		if err := core.Prepare(bench, db, 1); err != nil {
			b.Fatal(err)
		}
		dur := 500 * time.Millisecond
		m := core.NewManager(bench, db, []core.Phase{{Duration: dur, Rate: 0}},
			core.Options{Terminals: 4})
		if err := m.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		committed := m.Collector().Committed()
		if committed == 0 {
			b.Fatal("disk-resident run committed nothing")
		}
		b.ReportMetric(float64(committed)/dur.Seconds(), "tps")
		db.Close()
	}
}

// E-VAC: a sustained update/churn mix against a small hot set leaves behind
// committed-dead versions and row slots that only the online vacuum reclaims
// behind the transaction low-watermark. Every 16th operation is an unindexed
// point query — a sequential scan that pays for every unreclaimed slot — so
// without vacuum the p99 tail drifts upward with run length, while with the
// background vacuum it stays flat. Reported as p99 over the first vs last
// quarter of the run, per variant. WAL is off so the storage layer, not the
// group-commit wait, is what the latencies measure.
func BenchmarkSustainedUpdateP99(b *testing.B) {
	for _, v := range []struct {
		name     string
		interval time.Duration
	}{{"vacuum", time.Millisecond}, {"novacuum", 0}} {
		b.Run(v.name, func(b *testing.B) {
			dbdriver.Register(dbdriver.Personality{
				Name: "p99-" + v.name, Dialect: "gosql", Mode: txn.MVCC,
				WALPolicy: wal.SyncNone, VacuumInterval: v.interval,
			})
			for i := 0; i < b.N; i++ {
				db, err := dbdriver.Open("p99-" + v.name)
				if err != nil {
					b.Fatal(err)
				}
				c := db.Connect()
				if _, err := c.Exec("CREATE TABLE hot (id INT NOT NULL, grp INT, PRIMARY KEY (id))"); err != nil {
					b.Fatal(err)
				}
				const keys = 64
				for k := 0; k < keys; k++ {
					if _, err := c.Exec("INSERT INTO hot VALUES (?, ?)", k, k); err != nil {
						b.Fatal(err)
					}
				}
				const ops = 100000
				var early, late stats.Histogram
				for u := 0; u < ops; u++ {
					k := u % keys
					t0 := time.Now()
					switch {
					case u%16 == 15: // seqscan: visits every unreclaimed slot
						if _, err := c.QueryRow("SELECT id FROM hot WHERE grp = ?", k); err != nil {
							b.Fatal(err)
						}
					case u%4 == 3: // churn: kill the row's slot, re-insert the key
						if _, err := c.Exec("DELETE FROM hot WHERE id = ?", k); err != nil {
							b.Fatal(err)
						}
						if _, err := c.Exec("INSERT INTO hot VALUES (?, ?)", k, k); err != nil {
							b.Fatal(err)
						}
					default: // grow the row's version chain
						if _, err := c.Exec("UPDATE hot SET grp = ? WHERE id = ?", k, k); err != nil {
							b.Fatal(err)
						}
					}
					d := time.Since(t0)
					switch {
					case u < ops/4:
						early.Record(d)
					case u >= ops-ops/4:
						late.Record(d)
					}
				}
				b.ReportMetric(float64(early.Percentile(99).Microseconds()), "early-p99-us")
				b.ReportMetric(float64(late.Percentile(99).Microseconds()), "late-p99-us")
				db.Close()
			}
		})
	}
}

// F1: Figure 1 — the architecture end to end: config -> manager -> queue ->
// workers -> driver -> engine, with statistics, trace, and the control API
// surface all exercised in one pass.
func TestArchitectureEndToEnd(t *testing.T) {
	bench, err := core.NewBenchmark("smallbank", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dbdriver.Open("golock")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := core.Prepare(bench, db, 5); err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(bench, db, []core.Phase{
		{Duration: 600 * time.Millisecond, Rate: 500, Exponential: true},
		{Duration: 600 * time.Millisecond, Rate: 0},
	}, core.Options{Terminals: 4})
	if err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := m.Collector()
	if c.Committed() == 0 {
		t.Fatal("no commits")
	}
	if c.Errors() > 0 {
		t.Fatalf("errors: %d", c.Errors())
	}
	snap := c.Snapshot()
	if len(snap.TypeNames) != 6 {
		t.Fatalf("smallbank types: %v", snap.TypeNames)
	}
	if len(c.Windows()) == 0 {
		t.Fatal("no stats windows")
	}
}
