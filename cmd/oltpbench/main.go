// Command oltpbench is the batch benchmark runner: it loads a workload
// (from a config.xml or flags), executes its phases against a target engine
// personality, and prints the results summary — the classic OLTP-Bench
// driver loop.
//
// Usage:
//
//	oltpbench -config config.xml [-trace trace.txt]
//	oltpbench -bench tpcc -db gomvcc -scale 1 -terminals 8 -time 30 -rate 500
//	oltpbench -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	_ "benchpress/internal/benchmarks/all"
	"benchpress/internal/config"
	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
	"benchpress/internal/monitor"
	"benchpress/internal/trace"
)

func main() {
	var (
		configPath = flag.String("config", "", "workload config.xml (overrides the individual flags)")
		benchName  = flag.String("bench", "ycsb", "benchmark name")
		dbName     = flag.String("db", "gomvcc", "target DBMS personality")
		scale      = flag.Float64("scale", 1, "scale factor")
		terminals  = flag.Int("terminals", 8, "worker threads")
		seconds    = flag.Float64("time", 10, "phase duration in seconds")
		rate       = flag.Float64("rate", 0, "target tps (0 = unlimited)")
		weights    = flag.String("weights", "", "comma-separated mixture weights")
		arrival    = flag.String("arrival", "uniform", "arrival distribution: uniform | exponential")
		tracePath  = flag.String("trace", "", "write per-transaction trace to this file")
		replayPath = flag.String("replay", "", "replay the per-second rate curve of a recorded trace (overrides -time/-rate)")
		seed       = flag.Int64("seed", 1, "random seed")
		list       = flag.Bool("list", false, "list benchmarks and DBMS personalities, then exit")
		monitorOn  = flag.Bool("monitor", true, "collect host resource statistics")
		dataDir    = flag.String("data-dir", "", "run the target DBMS disk-resident: its log in this directory is the store, replayed on restart")
	)
	flag.Parse()

	// Disk residency is a property of the chosen personality: re-register the
	// target under the same name with the log directory attached, so the
	// run's Open gets the disk engine.
	if *dataDir != "" {
		p, err := dbdriver.Lookup(*dbName)
		if err != nil {
			fatal(err)
		}
		p.DataDir = *dataDir
		dbdriver.Register(p)
	}

	if *list {
		fmt.Println("benchmarks: ", strings.Join(core.BenchmarkNames(), ", "))
		fmt.Println("dbms:       ", strings.Join(dbdriver.Names(), ", "))
		return
	}

	var (
		wl  *config.Workload
		err error
	)
	if *configPath != "" {
		wl, err = config.ParseFile(*configPath)
		if err != nil {
			fatal(err)
		}
	} else {
		wl = &config.Workload{
			Benchmark:   *benchName,
			DBType:      *dbName,
			ScaleFactor: *scale,
			Terminals:   *terminals,
			Works: []config.Work{{
				Time:    *seconds,
				Rate:    rateString(*rate),
				Weights: *weights,
				Arrival: *arrival,
			}},
		}
		if err := wl.Validate(); err != nil {
			fatal(err)
		}
	}

	if err := run(wl, *tracePath, *replayPath, *seed, *monitorOn); err != nil {
		fatal(err)
	}
}

func rateString(r float64) string {
	if r <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%g", r)
}

func run(wl *config.Workload, tracePath, replayPath string, seed int64, monitorOn bool) (retErr error) {
	bench, err := core.NewBenchmark(wl.Benchmark, wl.ScaleFactor)
	if err != nil {
		return err
	}
	db, err := dbdriver.Open(wl.DBType)
	if err != nil {
		return err
	}
	defer db.Close()

	fmt.Printf("== loading %s (scale %g) into %s\n", wl.Benchmark, wl.ScaleFactor, wl.DBType)
	start := time.Now()
	if err := core.Prepare(bench, db, seed); err != nil {
		return err
	}
	fmt.Printf("   loaded %d rows in %v\n", db.Engine().RowCount(), time.Since(start).Round(time.Millisecond))

	var phases []core.Phase
	if replayPath != "" {
		f, err := os.Open(replayPath)
		if err != nil {
			return err
		}
		entries, err := trace.Read(f)
		_ = f.Close() // read-only replay file; close cannot lose data
		if err != nil {
			return err
		}
		rates := trace.RateSchedule(entries, time.Second)
		if len(rates) == 0 {
			return fmt.Errorf("trace %q has no committed transactions to replay", replayPath)
		}
		fmt.Printf("== replaying %d seconds of recorded load from %s\n", len(rates), replayPath)
		phases = core.PhasesFromRates(rates, time.Second, nil)
	}
	for _, w := range wl.Works {
		if replayPath != "" {
			break // the replay schedule replaces the configured works
		}
		tps, err := w.RateTPS()
		if err != nil {
			return err
		}
		mix, err := w.MixWeights()
		if err != nil {
			return err
		}
		phases = append(phases, core.Phase{
			Duration:    w.Duration(),
			Rate:        tps,
			Mix:         mix,
			Exponential: w.ExponentialArrival(),
			ThinkTime:   w.ThinkTime(),
		})
	}

	opts := core.Options{Terminals: wl.Terminals, Seed: seed}
	var traceFile *os.File
	if tracePath != "" {
		traceFile, err = os.Create(tracePath)
		if err != nil {
			return err
		}
		// The trace file is a write path: a failed close means recorded
		// transactions were lost, so it must fail the run.
		defer func() {
			if cerr := traceFile.Close(); cerr != nil && retErr == nil {
				retErr = fmt.Errorf("close trace file: %w", cerr)
			}
		}()
		opts.Trace = trace.NewWriter(traceFile)
	}

	var mon *monitor.Monitor
	if monitorOn {
		mon = monitor.New(time.Second)
		mon.Start()
		defer mon.Stop()
	}

	m := core.NewManager(bench, db, phases, opts)
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	fmt.Printf("== running %d phase(s) with %d terminal(s)\n", len(phases), wl.Terminals)
	runStart := time.Now()
	if err := m.Run(ctx); err != nil && err != context.Canceled {
		return err
	}
	elapsed := time.Since(runStart)

	printSummary(m, elapsed, mon)
	return nil
}

func printSummary(m *core.Manager, elapsed time.Duration, mon *monitor.Monitor) {
	c := m.Collector()
	fmt.Printf("\n== results (%v elapsed)\n", elapsed.Round(time.Millisecond))
	fmt.Printf("   committed: %d (%.1f tps)\n", c.Committed(), float64(c.Committed())/elapsed.Seconds())
	fmt.Printf("   aborted:   %d   retries: %d   errors: %d   postponed: %d\n",
		c.Aborted(), c.Retries(), c.Errors(), m.Postponed())
	fmt.Printf("   latency:   %s\n", c.Global().Snapshot())
	fmt.Println("   per transaction type:")
	snap := c.Snapshot()
	for i, name := range snap.TypeNames {
		tl := snap.TypeLat[i]
		fmt.Printf("     %-24s %9d txns  avg %7.2f ms  p50 %7.2f  p95 %7.2f  p99 %7.2f\n",
			name, snap.TypeCounts[i], float64(snap.TypeLatency[i].Microseconds())/1000,
			msf(tl.P50), msf(tl.P95), msf(tl.P99))
	}
	if mon != nil {
		if s := mon.Latest(); s.HostStats {
			fmt.Printf("   host: cpu %.0f%%us/%.0f%%sy  mem %.0f%%  heap %.0fMB\n",
				s.CPUUserPct, s.CPUSystemPct, s.MemUsedPct, s.HeapMB)
		}
	}
}

func msf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "oltpbench:", err)
	os.Exit(1)
}
