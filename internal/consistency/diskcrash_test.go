package consistency

import (
	"bytes"
	"syscall"
	"testing"
	"time"

	"benchpress/internal/dbdriver"
	"benchpress/internal/sqldb/storage/heap"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/wal"
)

// faults are the sink failures every RAM-arm sweep runs at each budget.
var faults = []Fault{FaultKill, FaultShortWrite, FaultNoSpace}

func (f Fault) String() string {
	return [...]string{"kill", "short-write", "enospc"}[f]
}

// ramBase is the RAM arm's baseline: write-through WAL, one session, no
// kill - used to measure the full log size for the kill-point sweep.
func ramBase(t *testing.T, seed int64) CrashConfig {
	t.Helper()
	cfg := CrashConfig{Policy: wal.SyncNone, Seed: seed, Budget: -1}
	if *long {
		cfg.Txns = 1200
	}
	return cfg
}

// TestBudgetWriter pins the meter's fault kinds directly: a 10-byte budget
// takes "hello" whole, the crossing write fails as the fault says, and a
// later write fails for good after a kill but lands whole after a
// transient fault.
func TestBudgetWriter(t *testing.T) {
	for _, tc := range []struct {
		fault     Fault
		crossN    int
		crossErr  error
		laterN    int
		laterErr  error
		surviving string
	}{
		{FaultKill, 5, ErrKilled, 0, ErrKilled, "helloworld"},
		{FaultShortWrite, 5, nil, 1, nil, "helloworldx"},
		{FaultNoSpace, 0, syscall.ENOSPC, 1, nil, "hellox"},
	} {
		w := &budgetWriter{budget: newCrashBudget(10), fault: tc.fault}
		if n, err := w.Write([]byte("hello")); n != 5 || err != nil {
			t.Fatalf("%v: first write: n=%d err=%v", tc.fault, n, err)
		}
		if n, err := w.Write([]byte("worldwide")); n != tc.crossN || err != tc.crossErr {
			t.Fatalf("%v: budget-crossing write: n=%d err=%v, want %d, %v", tc.fault, n, err, tc.crossN, tc.crossErr)
		}
		if n, err := w.Write([]byte("x")); n != tc.laterN || err != tc.laterErr {
			t.Fatalf("%v: post-fault write: n=%d err=%v, want %d, %v", tc.fault, n, err, tc.laterN, tc.laterErr)
		}
		if got := string(w.buf); got != tc.surviving {
			t.Fatalf("%v: surviving image %q, want %q", tc.fault, got, tc.surviving)
		}
		if !w.budget.killed() {
			t.Fatalf("%v: budget not marked killed", tc.fault)
		}
	}
}

// TestCrashRecoveryClean is the RAM arm's no-crash baseline: the log holds
// one commit record per OnCommit call - exactly the acked commits - and
// rolled-back transactions never appear.
func TestCrashRecoveryClean(t *testing.T) {
	res, err := RunCrash(ramBase(t, harnessSeed(t)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Killed {
		t.Fatal("unlimited budget run reported a kill")
	}
	var acked, rolledBack int
	for i := range res.Attempts {
		if res.Attempts[i].Acked {
			acked++
		}
		if res.Attempts[i].RolledBack {
			rolledBack++
		}
		if res.Attempts[i].Uncertain {
			t.Fatalf("txn %d uncertain without a crash", res.Attempts[i].ID)
		}
	}
	if acked == 0 || rolledBack == 0 {
		t.Fatalf("workload shape degenerate: acked=%d rolledBack=%d", acked, rolledBack)
	}
	if recs, _, err := wal.ScanRecords(res.WALImage); err != nil || len(recs) != acked {
		t.Fatalf("log holds %d records (err %v) for %d commits", len(recs), err, acked)
	}
	if err := VerifyCrash(res, true); err != nil {
		t.Fatal(err)
	}
}

// TestCrashKillPointSweep is the RAM arm's torture core: the same seeded
// workload runs against log devices that fail at byte budgets swept across
// the whole log, including cuts inside record frames, under each fault
// kind. At every point acked = winners exactly (write-through appends make
// the uncertainty window empty), every failed commit reports the fault,
// and a fresh session sees exactly the acked commits' rows.
func TestCrashKillPointSweep(t *testing.T) {
	seed := harnessSeed(t)
	base, err := RunCrash(ramBase(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	total := base.Used
	if total == 0 {
		t.Fatal("baseline produced an empty log")
	}
	points := 14
	if *long {
		points = 60
	}
	for i := 0; i <= points; i++ {
		budget := total * int64(i) / int64(points)
		// Probe both the aligned cut and three bytes short of it, so both
		// record-boundary and mid-frame tears are covered.
		for _, b := range []int64{budget, budget - 3} {
			if b < 0 {
				continue
			}
			for _, f := range faults {
				cfg := ramBase(t, seed)
				cfg.Budget, cfg.Fault = b, f
				res, err := RunCrash(cfg)
				if err != nil {
					t.Fatalf("budget %d %v: %v", b, f, err)
				}
				if b < total && !res.Killed {
					t.Fatalf("budget %d %v below total %d did not fault", b, f, total)
				}
				if err := VerifyCrash(res, true); err != nil {
					t.Fatalf("budget %d %v: %v", b, f, err)
				}
			}
		}
	}
}

// TestCrashDeterminism pins the property the sweep relies on: the same seed
// and budget reproduce the same surviving log image bit-for-bit.
func TestCrashDeterminism(t *testing.T) {
	cfg := ramBase(t, harnessSeed(t))
	cfg.Budget = 777
	a, err := RunCrash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCrash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.WALImage, b.WALImage) {
		t.Fatalf("same seed+budget produced different log images (%d vs %d bytes)", len(a.WALImage), len(b.WALImage))
	}
}

// TestCrashGroupCommit tortures the group-commit path with concurrent
// sessions: a failed sink must fail every waiter of the affected generation
// (no acknowledged-but-lost commits), while complete records from a
// partially flushed generation are attributed to the uncertainty window.
func TestCrashGroupCommit(t *testing.T) {
	seed := harnessSeed(t)
	group := func(budget int64, f Fault) (*CrashResult, error) {
		res, err := RunCrash(CrashConfig{
			Policy: wal.SyncGroup, GroupInterval: 100 * time.Microsecond,
			Seed: seed, Workers: 4, Budget: budget, Fault: f,
		})
		if err != nil {
			return nil, err
		}
		return res, VerifyCrash(res, false)
	}
	base, err := group(-1, FaultKill)
	if err != nil {
		t.Fatal(err)
	}
	total := base.Used
	budgets := []int64{total / 5, total / 2, total * 4 / 5}
	if *long {
		for i := int64(1); i < 20; i++ {
			budgets = append(budgets, total*i/20-1)
		}
	}
	for _, b := range budgets {
		for _, f := range faults {
			if _, err := group(b, f); err != nil {
				t.Fatalf("budget %d %v: %v", b, f, err)
			}
		}
	}
}

// recoverVerifyConform recovers a crash run's disk image, checks the
// durability contract, optionally runs the isolation-conformance oracle on
// the recovered engine (proving it is a fully working database, not just a
// readable one), and returns the number of torn pages recovery rebuilt.
func recoverVerifyConform(t *testing.T, res *CrashResult, attempts []CommitAttempt, conformTxns int, seed int64) int {
	t.Helper()
	eng, err := RecoverDiskCrash(res, 8)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	torn := len(eng.DiskRecovery().TornPages)
	if err := VerifyDiskCrash(res, attempts, eng); err != nil {
		eng.Close()
		t.Fatal(err)
	}
	if conformTxns == 0 {
		eng.Close()
		return torn
	}
	// The conformance workload uses its own table (kv), so the recovered
	// crashkv rows ride along untouched; ChurnKeys is 0 because the locking
	// engine has no phantom protection on absent keys. Run closes the engine.
	h, err := Run(Config{
		Personality: "golock-disk-recovered",
		Seed:        seed,
		Txns:        conformTxns,
		ChurnKeys:   0,
		Open: func() (*dbdriver.DB, error) {
			return dbdriver.Wrap(dbdriver.Personality{
				Name: "golock-disk-recovered", Mode: txn.Locking,
			}, eng), nil
		},
	})
	if err != nil {
		t.Fatalf("conformance on recovered engine: %v", err)
	}
	if r := CheckSerializable(h); !r.Empty() {
		for _, v := range r.Violations {
			t.Errorf("recovered-engine %s: txn %d op %d: %s", v.Class, v.TxnID, v.OpIdx, v.Detail)
		}
		t.FailNow()
	}
	return torn
}

// TestDiskCrashClean is the no-crash baseline: with an unlimited budget every
// acked commit wins recovery and the recovered contents match the model.
func TestDiskCrashClean(t *testing.T) {
	res, err := RunCrash(CrashConfig{Disk: true, Seed: harnessSeed(t), Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Killed {
		t.Fatal("unlimited budget run reported a kill")
	}
	var acked, rolledBack int
	for i := range res.Attempts {
		if res.Attempts[i].Acked {
			acked++
		}
		if res.Attempts[i].RolledBack {
			rolledBack++
		}
		if res.Attempts[i].Uncertain {
			t.Fatalf("txn %d uncertain without a crash", res.Attempts[i].ID)
		}
	}
	if acked == 0 || rolledBack == 0 {
		t.Fatalf("workload shape degenerate: acked=%d rolledBack=%d", acked, rolledBack)
	}
	if len(res.PageWrites) == 0 {
		t.Fatal("no page flushes: the pool never wrote the device")
	}
	recoverVerifyConform(t, res, res.Attempts, 0, harnessSeed(t))
}

// TestDiskCrashDeterminism pins the property the sweep stands on: the same
// seed and budget reproduce the same WAL bytes and the same device image.
func TestDiskCrashDeterminism(t *testing.T) {
	cfg := CrashConfig{Disk: true, Seed: harnessSeed(t), Budget: 9000}
	a, err := RunCrash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCrash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.WALImage, b.WALImage) {
		t.Fatalf("same seed+budget produced different WAL images (%d vs %d bytes)",
			len(a.WALImage), len(b.WALImage))
	}
	ai, bi := a.Device.Image(), b.Device.Image()
	if len(ai) != len(bi) {
		t.Fatalf("device page counts differ: %d vs %d", len(ai), len(bi))
	}
	for i := range ai {
		if !bytes.Equal(ai[i], bi[i]) {
			t.Fatalf("device page %d differs between identical runs", i)
		}
	}
}

// TestDiskCrashKillPointSweep is the torture core: the seeded workload runs
// against budgets swept across the whole durable byte stream — evenly spaced
// cuts (aligned and mid-frame), cuts inside heap page flushes, and cuts
// inside checkpoint records. Every kill point must recover to an image that
// honors acked ⊆ winners ⊆ acked ∪ uncertain with byte-exact contents, and
// the recovered engine must pass the isolation-conformance oracle.
func TestDiskCrashKillPointSweep(t *testing.T) {
	seed := harnessSeed(t)
	dry, err := RunCrash(CrashConfig{Disk: true, Seed: seed, Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	total, floor := dry.Used, dry.SchemaFloor
	if total <= floor {
		t.Fatalf("degenerate stream: total=%d floor=%d", total, floor)
	}

	var points []int64
	add := func(b int64) {
		if b > floor && b < total {
			points = append(points, b)
		}
	}
	fractions := 10
	if *long {
		fractions = 40
	}
	for i := 1; i <= fractions; i++ {
		b := floor + (total-floor)*int64(i)/int64(fractions)
		add(b)
		add(b - 3) // mid-frame: WAL record headers are longer than 3 bytes
	}
	// Mid-page-flush tears: cut inside the first, a middle, and the last
	// page write of the dry run.
	var pw []int64
	for _, off := range dry.PageWrites {
		if off > floor {
			pw = append(pw, off)
		}
	}
	if len(pw) == 0 {
		t.Fatal("no page flushes after the schema floor to tear")
	}
	for _, off := range []int64{pw[0], pw[len(pw)/2], pw[len(pw)-1]} {
		add(off + 1)
		add(off + heap.PageSize/2)
		add(off + heap.PageSize - 1)
	}
	// Mid-checkpoint tears: cut inside checkpoint record frames.
	ckpts := [][2]int64{}
	for _, cw := range dry.CheckpointWrites() {
		if cw[0] > floor {
			ckpts = append(ckpts, cw)
		}
	}
	if len(ckpts) == 0 {
		t.Fatal("no checkpoints after the schema floor to tear")
	}
	for _, cw := range []([2]int64){ckpts[0], ckpts[len(ckpts)-1]} {
		add(cw[0] + 1)
		add(cw[0] + cw[1]/2)
		add(cw[0] + cw[1] - 1)
	}
	if len(points) < 15 {
		t.Fatalf("only %d kill points; the sweep needs at least 15", len(points))
	}

	tornTotal := 0
	for _, b := range points {
		res, err := RunCrash(CrashConfig{Disk: true, Seed: seed, Budget: b})
		if err != nil {
			t.Fatalf("budget %d: %v", b, err)
		}
		if !res.Killed {
			t.Fatalf("budget %d below total %d did not kill", b, total)
		}
		tornTotal += recoverVerifyConform(t, res, res.Attempts, 60, seed+b)
	}
	if tornTotal == 0 {
		t.Fatal("no kill point produced a torn page; mid-page-flush cuts are not biting")
	}
}

// TestDiskCrashChainedRestarts crashes, recovers, keeps running on the
// recovered image, crashes again, and verifies the final recovery against
// the cumulative history. This is also the regression net for transaction-id
// reuse across restarts: a second-life transaction must never be able to
// borrow a first-life commit record.
func TestDiskCrashChainedRestarts(t *testing.T) {
	seed := harnessSeed(t)
	dry1, err := RunCrash(CrashConfig{Disk: true, Seed: seed, Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	run1, err := RunCrash(CrashConfig{Disk: true,
		Seed:   seed,
		Budget: dry1.SchemaFloor + (dry1.Used-dry1.SchemaFloor)*3/5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !run1.Killed {
		t.Fatal("first run did not crash")
	}

	// Second life: reopen over the surviving image (recovery runs inside)
	// and crash again at a budget found by a chained dry run.
	chain := CrashConfig{Disk: true, Seed: seed + 1, Device: run1.Device, WAL: run1.WALImage}
	// The chained dry run mutates the device via recovery write-back, so run
	// it on a deep copy to keep the real chain pristine.
	dryDev := heap.NewMemDevice()
	for id, pg := range run1.Device.Image() {
		if pg != nil {
			if err := dryDev.WritePage(uint32(id), pg); err != nil {
				t.Fatal(err)
			}
		}
	}
	dry2, err := RunCrash(CrashConfig{Disk: true, Seed: seed + 1, Device: dryDev, WAL: run1.WALImage, Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	chain.Budget = dry2.SchemaFloor + (dry2.Used-dry2.SchemaFloor)*3/5
	run2, err := RunCrash(chain)
	if err != nil {
		t.Fatal(err)
	}
	if !run2.Killed {
		t.Fatal("second run did not crash")
	}

	recoverVerifyConform(t, run2, MergeAttempts(run1.Attempts, run2.Attempts), 120, seed+2)
}
