package all

import (
	"context"
	"testing"
	"time"

	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
)

// tinyScale keeps load times negligible in tests.
const tinyScale = 0.02

// TestEveryBenchmarkLoadsAndRuns is the suite-wide integration test: every
// registered benchmark must create its schema, load at a small scale, and
// sustain a short open-loop run on the MVCC engine with zero errors. The run
// lasts at least minRun and then until every positive-weight transaction
// type has run once, so a rare type on a loaded machine gets its turn; only
// a type still missing at maxRun fails.
func TestEveryBenchmarkLoadsAndRuns(t *testing.T) {
	const minRun, maxRun = 400 * time.Millisecond, 10 * time.Second
	for _, name := range core.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := core.NewBenchmark(name, tinyScale)
			if err != nil {
				t.Fatal(err)
			}
			db, err := dbdriver.Open("gomvcc")
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := core.Prepare(b, db, 42); err != nil {
				t.Fatal(err)
			}
			m := core.NewManager(b, db, []core.Phase{{Duration: maxRun, Rate: 0}},
				core.Options{Terminals: 4, Seed: 7})
			if err := runUntilEveryTypeRan(m, b.DefaultMix(), minRun); err != nil {
				t.Fatal(err)
			}
			c := m.Collector()
			if c.Committed() == 0 {
				t.Fatalf("no transactions committed (aborted=%d errors=%d)", c.Aborted(), c.Errors())
			}
			if c.Errors() > 0 {
				t.Fatalf("%d errors during run (committed=%d)", c.Errors(), c.Committed())
			}
			// Every declared transaction type must be exercised by the
			// default mixture (types with zero weight are exempt).
			snap := c.Snapshot()
			for i, w := range b.DefaultMix() {
				if w > 0 && snap.TypeCounts[i] == 0 {
					t.Errorf("transaction type %s never ran", snap.TypeNames[i])
				}
			}
		})
	}
}

// runUntilEveryTypeRan runs m for at least minRun, then stops it once every
// type with positive weight in mix has committed; m's phases are the cap.
func runUntilEveryTypeRan(m *core.Manager, mix []float64, minRun time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- m.Run(context.Background()) }()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	start := time.Now()
	for {
		select {
		case err := <-errc:
			return err
		case <-tick.C:
			if time.Since(start) >= minRun && everyTypeRan(mix, m.Collector().Snapshot().TypeCounts) {
				m.Stop()
			}
		}
	}
}

func everyTypeRan(mix []float64, counts []int64) bool {
	for i, w := range mix {
		if w > 0 && counts[i] == 0 {
			return false
		}
	}
	return true
}

// TestEveryBenchmarkOnAllEngines runs each benchmark briefly on all three
// engine personalities, confirming the ports are engine-agnostic.
func TestEveryBenchmarkOnAllEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, engine := range []string{"goserial", "golock", "gomvcc"} {
		for _, name := range core.BenchmarkNames() {
			engine, name := engine, name
			t.Run(engine+"/"+name, func(t *testing.T) {
				t.Parallel()
				b, err := core.NewBenchmark(name, tinyScale)
				if err != nil {
					t.Fatal(err)
				}
				db, err := dbdriver.Open(engine)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				if err := core.Prepare(b, db, 42); err != nil {
					t.Fatal(err)
				}
				m := core.NewManager(b, db, []core.Phase{{Duration: 250 * time.Millisecond, Rate: 0}},
					core.Options{Terminals: 2, Seed: 11})
				if err := m.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
				c := m.Collector()
				if c.Committed() == 0 {
					t.Fatalf("no commits (aborted=%d errors=%d)", c.Aborted(), c.Errors())
				}
				if c.Errors() > 0 {
					t.Fatalf("%d errors", c.Errors())
				}
			})
		}
	}
}

// TestBenchmarkContracts checks structural invariants of every port without
// running it: the default mixture is parallel to the procedure list, weights
// are non-negative with positive total, names are unique and non-empty, and
// tiny scale factors never break construction.
func TestBenchmarkContracts(t *testing.T) {
	for _, name := range core.BenchmarkNames() {
		for _, scale := range []float64{0.001, 0.02, 1, 2.5} {
			b, err := core.NewBenchmark(name, scale)
			if err != nil {
				t.Fatalf("%s @%g: %v", name, scale, err)
			}
			procs := b.Procedures()
			mix := b.DefaultMix()
			if len(procs) == 0 {
				t.Errorf("%s: no procedures", name)
			}
			if len(mix) != len(procs) {
				t.Errorf("%s: mix has %d weights for %d procedures", name, len(mix), len(procs))
			}
			total := 0.0
			for i, w := range mix {
				if w < 0 {
					t.Errorf("%s: negative weight %v at %d", name, w, i)
				}
				total += w
			}
			if total <= 0 {
				t.Errorf("%s: zero total weight", name)
			}
			seen := map[string]bool{}
			for _, p := range procs {
				if p.Name == "" || p.Fn == nil {
					t.Errorf("%s: procedure with empty name or nil fn", name)
				}
				if seen[p.Name] {
					t.Errorf("%s: duplicate procedure name %q", name, p.Name)
				}
				seen[p.Name] = true
			}
		}
	}
}
