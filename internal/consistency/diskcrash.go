package consistency

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"syscall"
	"time"

	"benchpress/internal/sqldb"
	"benchpress/internal/sqldb/catalog"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/wal"
)

// Crash torture: one harness with two arms. Both drive the same seeded
// workload while a byte budget meters the log sink; the write that crosses
// the budget hits a fault (by default it is torn - a partial frame lands -
// and everything after it is rejected, exactly as if the machine lost power
// at that byte). Both arms then check the durability contract
//
//	acked ⊆ winners ⊆ acked ∪ uncertain
//
// plus byte-exact row contents.
//
// The RAM arm runs gomvcc (sqldb.Open) with its WAL sink on the meter. The
// log is its only durable state: the winners are the transactions whose
// commit records ScanRecords finds in the surviving image, and the rows a
// fresh session of the crashed engine sees must be exactly the acked
// commits' writes. Under write-through (SyncNone) a commit record is one
// sink write that either lands whole, acking the commit, or is torn and
// dropped, so acked = winners exactly.
//
// The disk arm tortures the full recovery path: a disk-resident golock
// engine, whose log is its store, logs every commit's rows and a mid-run
// CREATE INDEX to the meter. The surviving image goes through real recovery
// (sqldb.OpenDisk), and the recovered table must hold exactly the winners'
// writes, with the index present if its DDL was acknowledged.
//
// With a single worker and a write-through log, the same seed and budget
// reproduce the same byte stream, making a kill-point sweep across the
// whole stream - including cuts inside multi-row commit records and inside
// the DDL record - deterministic.

// ErrKilled is the persistent error the meter returns once a kill has
// exhausted its byte budget - the emulation of a device that died
// mid-write.
var ErrKilled = errors.New("consistency: simulated crash: log device killed")

// Fault is how the WAL sink fails at the write that crosses the budget.
// After a kill every later write fails too; the two transient faults pass
// every later write whole, so only the log's own poisoning can fail the
// commits that follow them.
type Fault uint8

const (
	// FaultKill lands the crossing write's granted prefix (a torn tail)
	// and fails it with ErrKilled.
	FaultKill Fault = iota
	// FaultShortWrite lands the granted prefix and reports only those
	// bytes with a nil error; the log turns that into io.ErrShortWrite.
	FaultShortWrite
	// FaultNoSpace lands nothing and fails with syscall.ENOSPC, as a full
	// disk does.
	FaultNoSpace
)

// err is the error a commit that hits the fault must wrap.
func (f Fault) err() error {
	switch f {
	case FaultShortWrite:
		return io.ErrShortWrite
	case FaultNoSpace:
		return syscall.ENOSPC
	default:
		return ErrKilled
	}
}

// sinkWrite records one accepted WAL sink write. Under write-through policy
// every write is exactly one record frame, so the harness can decode the
// record from the write's bytes.
type sinkWrite struct {
	off int // offset within this run's sink bytes
	n   int // bytes accepted (the full frame unless this write tore)
}

// budgetWriter is the WAL sink: it accepts writes whole until limit bytes
// (negative = unlimited), keeps the accepted bytes as the surviving log
// image, and fails per its fault at the write that would cross the limit.
type budgetWriter struct {
	limit   int64
	fault   Fault
	mu      sync.Mutex
	faulted bool // the crossing write has been answered
	buf     []byte
	writes  []sinkWrite
}

func (w *budgetWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	granted := len(p)
	var err error // a short write's crossing write keeps its prefix and nil
	switch {
	case w.faulted && w.fault == FaultKill:
		granted, err = 0, ErrKilled
	case !w.faulted && w.limit >= 0 && int64(len(w.buf)+len(p)) > w.limit:
		w.faulted = true
		granted = int(w.limit) - len(w.buf)
		switch w.fault {
		case FaultNoSpace:
			granted, err = 0, syscall.ENOSPC
		case FaultKill:
			err = ErrKilled
		}
	}
	if granted > 0 {
		w.writes = append(w.writes, sinkWrite{off: len(w.buf), n: granted})
		w.buf = append(w.buf, p[:granted]...)
	}
	return granted, err
}

// CrashConfig parameterizes one crash-torture run.
type CrashConfig struct {
	// Disk selects the disk arm (golock on a disk-resident engine,
	// write-through WAL, full recovery); false runs the RAM arm (gomvcc
	// with its WAL sink on the meter).
	Disk bool
	// Seed drives the workload.
	Seed int64
	// Txns is the number of transactions to attempt, split evenly across
	// the workers.
	Txns int
	// Workers is the number of concurrent sessions, each on its own key
	// range so the workload stays conflict-free. Only one worker gives a
	// deterministic byte stream.
	Workers int
	// Budget is the byte budget of the log sink (negative = never dies).
	Budget int64
	// Fault is how the RAM arm's WAL sink fails at the budget. The disk
	// arm always kills (FaultKill) its sink.
	Fault Fault
	// Policy and GroupInterval configure the RAM arm's WAL: SyncNone
	// writes through (deterministic kill points, exact winners), SyncGroup
	// exercises group-commit failure propagation.
	Policy        wal.SyncPolicy
	GroupInterval time.Duration
	// WAL resumes a previous disk run's surviving log image (chained
	// restarts through repeated crashes); nil starts fresh.
	WAL []byte
}

func (c CrashConfig) withDefaults() CrashConfig {
	if c.Txns == 0 {
		c.Txns = 140
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Disk {
		c.Fault = FaultKill
	}
	return c
}

// CrashOp is one logical row write of a crash-workload transaction.
type CrashOp struct {
	// Kind is the txn.WriteKind of the write.
	Kind byte
	// K and V are the key and the value written (V is 0 for deletes).
	K, V int64
}

// CommitAttempt is one transaction the crash workload tried to commit.
type CommitAttempt struct {
	// ID is the engine transaction id.
	ID uint64
	// Ops is the transaction's write set in program order.
	Ops []CrashOp
	// Acked reports that Commit returned nil: the durability contract says
	// the transaction must survive recovery.
	Acked bool
	// Uncertain reports that Commit returned a durability error: the
	// transaction aborted in memory and may or may not be on disk (the
	// classic commit-uncertainty window).
	Uncertain bool
	// Err is Commit's error when Uncertain.
	Err error
	// RolledBack reports a voluntary rollback: the transaction must never
	// win.
	RolledBack bool
}

// CrashResult is the outcome of one crash-torture run.
type CrashResult struct {
	// Attempts records every transaction with its write set and commit
	// outcome (acked, uncertain, or rolled back).
	Attempts []CommitAttempt
	// IndexTried reports that the disk arm issued its mid-run CREATE INDEX,
	// and IndexErr holds that statement's error.
	IndexTried bool
	IndexErr   error
	// WALImage is the surviving log: the clean prefix of the run's input
	// plus every byte the sink accepted.
	WALImage []byte
	// Rows is the RAM arm's crashkv table (key to value) as a fresh session
	// of the crashed engine sees it.
	Rows map[int64]int64
	// Killed reports whether the budget ran out.
	Killed bool
	// Used is the number of bytes the sink accepted.
	Used int64
	// SchemaFloor is the sink offset of the first user commit record:
	// kill points below it crash before the workload starts and are not
	// interesting to sweep.
	SchemaFloor int64

	fault     Fault
	sinkBytes []byte
	walWrites []sinkWrite
}

// LoggedRecord is one whole commit record the sink accepted.
type LoggedRecord struct {
	// Off and Len locate the record's frame in the sink stream.
	Off, Len int64
	// TxnID is the committing transaction (wal.SystemTxnID for DDL).
	TxnID uint64
	// Rows is the number of row images the record carries.
	Rows int
}

// Records decodes every whole record frame the run's sink accepted, for
// aiming kill points inside particular records. Under write-through each
// sink write is one frame; a torn one never decodes (record lengths and
// counts are exact) and is skipped.
func (r *CrashResult) Records() []LoggedRecord {
	var out []LoggedRecord
	for _, w := range r.walWrites {
		if w.n <= wal.PayloadHeaderSize {
			continue
		}
		c, err := wal.DecodeCommit(r.sinkBytes[w.off+wal.PayloadHeaderSize : w.off+w.n])
		if err != nil {
			continue
		}
		out = append(out, LoggedRecord{Off: int64(w.off), Len: int64(w.n), TxnID: c.TxnID, Rows: len(c.Rows)})
	}
	return out
}

// crashPad derives the pad column deterministically from the row value, so
// content verification can check rows byte-for-byte without the workload
// tracking pad strings.
func crashPad(v int64) string {
	b := make([]byte, 160)
	for i := range b {
		b[i] = 'a' + byte((v+int64(i))%26)
	}
	return string(b)
}

// RunCrash opens the arm's engine over the metered sink (the disk arm
// recovering any prior log image first), drives the seeded workload on
// table crashkv, and captures the surviving state after the crash.
func RunCrash(cfg CrashConfig) (*CrashResult, error) {
	cfg = cfg.withDefaults()
	sink := &budgetWriter{limit: cfg.Budget, fault: cfg.Fault}
	res := &CrashResult{fault: cfg.Fault}
	var (
		eng    *sqldb.Engine
		prefix []byte
	)
	if cfg.Disk {
		var err error
		eng, err = sqldb.OpenDisk(sqldb.Config{
			Name:      "disk-crash",
			Mode:      txn.Locking,
			WALPolicy: wal.SyncNone,
			DiskWAL:   cfg.WAL,
			WALSink:   sink,
		})
		if err != nil {
			return nil, fmt.Errorf("consistency: disk crash open: %w", err)
		}
		prefix = cfg.WAL[:eng.DiskRecovery().CleanWALLen]
	} else {
		eng = sqldb.Open(sqldb.Config{
			Name:                "crash-torture",
			Mode:                txn.MVCC,
			WALPolicy:           cfg.Policy,
			GroupCommitInterval: cfg.GroupInterval,
			WALSink:             sink,
		})
	}

	err := runCrashWorkload(eng, cfg, res)
	if err == nil && !cfg.Disk {
		res.Rows, err = readCrashRows(eng)
	}
	// Close before capturing: the shutdown flush is part of the byte stream
	// (a kill point can land inside it), and nothing may move afterwards.
	eng.Close()
	if err != nil {
		return nil, err
	}

	res.WALImage = append(append([]byte(nil), prefix...), sink.buf...)
	res.sinkBytes = sink.buf
	res.walWrites = sink.writes
	res.Used = int64(len(sink.buf))
	res.Killed = sink.faulted
	res.SchemaFloor = res.Used
	for _, rec := range res.Records() {
		if rec.TxnID != wal.SystemTxnID {
			res.SchemaFloor = rec.Off
			break
		}
	}
	return res, nil
}

// crashKeys is the number of keys each worker's transactions touch; worker
// w owns keys [w*crashKeySpan, w*crashKeySpan+crashKeys).
const (
	crashKeys    = 40
	crashKeySpan = 1000
)

// crashIndexDDL is the disk arm's mid-run schema change: a logged catalog
// record inside the swept byte stream, and an index recovery must rebuild.
const crashIndexDDL = "CREATE INDEX IF NOT EXISTS crashkv_v ON crashkv (v)"

// runCrashWorkload creates crashkv (or, on a chained disk run, reads the
// recovered keys) and runs the workers to completion, recording their
// attempts in res. On the disk arm, worker 0 issues crashIndexDDL halfway
// through its transactions.
func runCrashWorkload(eng *sqldb.Engine, cfg CrashConfig, res *CrashResult) error {
	sess := eng.Session()
	existing := map[int64]bool{}
	if !eng.Catalog().HasTable("crashkv") {
		_, err := sess.Exec(`CREATE TABLE crashkv (
			k BIGINT NOT NULL, v BIGINT, pad VARCHAR(200), PRIMARY KEY (k))`)
		if err != nil {
			return fmt.Errorf("consistency: crash schema: %w", err)
		}
	} else {
		q, err := sess.Query("SELECT k FROM crashkv")
		if err != nil {
			return err
		}
		for _, row := range q.Rows {
			existing[row[0].Int()] = true
		}
	}

	perWorker := cfg.Txns / cfg.Workers
	if perWorker == 0 {
		perWorker = 1
	}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	for w := 0; w < cfg.Workers; w++ {
		var ddl func(*sqldb.Session)
		if cfg.Disk && w == 0 {
			ddl = func(s *sqldb.Session) {
				_, err := s.Exec(crashIndexDDL)
				mu.Lock()
				res.IndexTried, res.IndexErr = true, err
				mu.Unlock()
			}
		}
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(worker)*104729))
			att, err := crashWorker(eng.Session(), rng, int64(worker)*crashKeySpan, maps.Clone(existing), perWorker, ddl)
			mu.Lock()
			res.Attempts = append(res.Attempts, att...)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return firstErr
}

// crashWorker runs one session's share of the workload over its own key
// range, tracking live keys so every statement succeeds and the expected
// write set is exactly the statement sequence. It tolerates commit failures
// (the crash) but not statement failures (those would be engine bugs:
// statements never touch the durable path), and it fails the run if a
// commit is acknowledged after an earlier one failed: a failed log must
// stay failed. A non-nil ddl runs before the middle transaction.
func crashWorker(sess *sqldb.Session, rng *rand.Rand, base int64, live map[int64]bool, txns int, ddl func(*sqldb.Session)) ([]CommitAttempt, error) {
	var attempts []CommitAttempt
	var failedID uint64 // first failed commit; 0 = none (engine ids start at 1)
	for i := 0; i < txns; i++ {
		if ddl != nil && i == txns/2 {
			ddl(sess)
		}
		if err := sess.Begin(); err != nil {
			return attempts, fmt.Errorf("consistency: crash begin: %w", err)
		}
		id := sess.TxnInfo().ID
		att := CommitAttempt{ID: id}
		nops := 1 + rng.Intn(4)
		touched := map[int64]bool{}
		for j := 0; j < nops; j++ {
			// One op per key per transaction: the engine's uniqueness check
			// is live-or-pending, so deleting and re-inserting a key inside
			// one transaction is rejected, and the torture targets the
			// durability path, not intra-txn churn.
			key := base + rng.Int63n(crashKeys)
			for touched[key] {
				key = base + rng.Int63n(crashKeys)
			}
			touched[key] = true
			var (
				err error
				op  CrashOp
			)
			switch {
			case !live[key]:
				op = CrashOp{Kind: byte(txn.WriteInsert), K: key, V: MakeTag(id, j)}
				_, err = sess.Exec("INSERT INTO crashkv (k, v, pad) VALUES (?, ?, ?)",
					key, op.V, crashPad(op.V))
				live[key] = true
			case rng.Intn(100) < 70:
				op = CrashOp{Kind: byte(txn.WriteUpdate), K: key, V: MakeTag(id, j)}
				_, err = sess.Exec("UPDATE crashkv SET v = ?, pad = ? WHERE k = ?",
					op.V, crashPad(op.V), key)
			default:
				op = CrashOp{Kind: byte(txn.WriteDelete), K: key}
				_, err = sess.Exec("DELETE FROM crashkv WHERE k = ?", key)
				live[key] = false
			}
			if err != nil {
				return attempts, fmt.Errorf("consistency: crash op: %w", err)
			}
			att.Ops = append(att.Ops, op)
		}
		if rng.Intn(100) < 10 {
			if err := sess.Rollback(); err != nil {
				return attempts, err
			}
			att.RolledBack = true
		} else if err := sess.Commit(); err == nil {
			if failedID != 0 {
				return attempts, fmt.Errorf("consistency: txn %d acknowledged after txn %d's commit failed: the log did not stay failed", id, failedID)
			}
			att.Acked = true
		} else {
			// The commit record may or may not be durable; recovery decides.
			att.Uncertain = true
			att.Err = err
			if failedID == 0 {
				failedID = id
			}
		}
		if !att.Acked {
			// The engine undid the writes: roll live-key tracking back too.
			for _, op := range att.Ops {
				switch txn.WriteKind(op.Kind) {
				case txn.WriteInsert:
					live[op.K] = false
				case txn.WriteDelete:
					live[op.K] = true
				}
			}
		}
		attempts = append(attempts, att)
	}
	return attempts, nil
}

// readCrashRows reads crashkv through a fresh session, checking every pad
// against its value; a missing table reads as empty.
func readCrashRows(eng *sqldb.Engine) (map[int64]int64, error) {
	rows := map[int64]int64{}
	if !eng.Catalog().HasTable("crashkv") {
		return rows, nil
	}
	q, err := eng.Session().Query("SELECT k, v, pad FROM crashkv")
	if err != nil {
		return nil, fmt.Errorf("consistency: crashkv scan: %w", err)
	}
	for _, row := range q.Rows {
		k, v := row[0].Int(), row[1].Int()
		if row[2].Str() != crashPad(v) {
			return nil, fmt.Errorf("consistency: key %d pad bytes corrupted", k)
		}
		rows[k] = v
	}
	return rows, nil
}

// logWinners returns the transactions whose commit records survive in a RAM
// engine's log image. A torn tail is the expected crash residue; any other
// damage, a record that is not a bare commit (RAM engines log no rows), or
// a commit logged twice is a hard error.
func logWinners(image []byte) (map[uint64]bool, error) {
	recs, _, err := wal.ScanRecords(image)
	if err != nil && !errors.Is(err, wal.ErrTorn) {
		return nil, err
	}
	winners := map[uint64]bool{}
	for _, r := range recs {
		rec, err := wal.DecodeCommit(r.Payload)
		if err != nil {
			return nil, fmt.Errorf("consistency: log record %d: %w", r.Seq, err)
		}
		if len(rec.Rows) != 0 {
			return nil, fmt.Errorf("consistency: log record %d carries %d rows, want a bare commit", r.Seq, len(rec.Rows))
		}
		if winners[rec.TxnID] {
			return nil, fmt.Errorf("consistency: txn %d logged twice", rec.TxnID)
		}
		winners[rec.TxnID] = true
	}
	return winners, nil
}

// checkAttempts is the durability contract both arms share: every acked
// commit wins, no rolled-back transaction wins, every winner is an acked
// or uncertain attempt (acked ⊆ winners ⊆ acked ∪ uncertain — an uncertain
// commit whose record reached the log before the crash legitimately wins),
// and, when fault is non-nil, every failed commit reports it. exact also
// forbids uncertain winners: a write-through log acks every commit record
// that lands whole.
func checkAttempts(attempts []CommitAttempt, winners map[uint64]bool, exact bool, fault error) error {
	byID := map[uint64]*CommitAttempt{}
	for i := range attempts {
		att := &attempts[i]
		if byID[att.ID] != nil {
			return fmt.Errorf("consistency: duplicate attempt txn id %d (id reuse across restarts)", att.ID)
		}
		byID[att.ID] = att
		switch {
		case att.Acked && !winners[att.ID]:
			return fmt.Errorf("consistency: acked txn %d lost", att.ID)
		case att.RolledBack && winners[att.ID]:
			return fmt.Errorf("consistency: rolled-back txn %d won", att.ID)
		case att.Uncertain && exact && winners[att.ID]:
			return fmt.Errorf("consistency: unacked txn %d won a write-through log", att.ID)
		case att.Uncertain && fault != nil && !errors.Is(att.Err, fault):
			return fmt.Errorf("consistency: txn %d failed with %v, want an error wrapping %v", att.ID, att.Err, fault)
		}
	}
	for id := range winners {
		if byID[id] == nil {
			return fmt.Errorf("consistency: winner %d is not a known attempt", id)
		}
	}
	return nil
}

// checkRows replays the writes of the attempts in keep, in attempt order,
// and compares the result with a table's contents.
func checkRows(attempts []CommitAttempt, keep func(*CommitAttempt) bool, rows map[int64]int64) error {
	model := map[int64]int64{}
	for i := range attempts {
		if !keep(&attempts[i]) {
			continue
		}
		for _, op := range attempts[i].Ops {
			switch txn.WriteKind(op.Kind) {
			case txn.WriteInsert, txn.WriteUpdate:
				model[op.K] = op.V
			case txn.WriteDelete:
				delete(model, op.K)
			}
		}
	}
	if len(rows) != len(model) {
		return fmt.Errorf("consistency: table holds %d rows, want %d", len(rows), len(model))
	}
	for k, v := range rows {
		want, ok := model[k]
		if !ok {
			return fmt.Errorf("consistency: key %d should not exist", k)
		}
		if v != want {
			return fmt.Errorf("consistency: key %d holds %d, want %d", k, v, want)
		}
	}
	return nil
}

// VerifyCrash checks a RAM-arm run against its surviving log image: a
// fault failed at least one commit, the commit records in the log are the
// winners, the contract of checkAttempts
// holds (exactly, when exact is set, as it is for write-through logs), and
// a fresh session saw exactly the acked commits' writes — a failed commit's
// rows are never visible.
func VerifyCrash(res *CrashResult, exact bool) error {
	winners, err := logWinners(res.WALImage)
	if err != nil {
		return err
	}
	if res.Killed && !slices.ContainsFunc(res.Attempts, func(a CommitAttempt) bool { return a.Uncertain }) {
		// Every sink write of a RAM engine carries commit records, so the
		// write that hit the fault failed at least one commit.
		return fmt.Errorf("consistency: the sink faulted but no commit failed")
	}
	if err := checkAttempts(res.Attempts, winners, exact, res.fault.err()); err != nil {
		return err
	}
	return checkRows(res.Attempts, func(a *CommitAttempt) bool { return a.Acked }, res.Rows)
}

// RecoverDiskCrash reopens an engine over a disk run's surviving log image,
// running the full restart: one replay of the log's clean prefix. The
// caller owns the returned engine.
func RecoverDiskCrash(res *CrashResult) (*sqldb.Engine, error) {
	return sqldb.OpenDisk(sqldb.Config{
		Name:      "disk-crash-recovered",
		Mode:      txn.Locking,
		WALPolicy: wal.SyncNone,
		DiskWAL:   res.WALImage,
		WALSink:   &bytes.Buffer{},
	})
}

// VerifyDiskCrash checks a recovered engine against the durability contract
// of the attempts that produced its log image (pass cumulative attempts for
// chained runs): the recovery winners satisfy checkAttempts exactly (the
// disk arm writes through, so a commit's record either lands whole and is
// acked or tears and loses), every failed commit and a failed CREATE INDEX
// wrap the fault (ErrKilled), an acknowledged CREATE INDEX survives, and the
// recovered table holds exactly the winners' writes replayed in order,
// value- and pad-byte-exact, and finds every row through the index when it
// exists.
func VerifyDiskCrash(res *CrashResult, attempts []CommitAttempt, eng *sqldb.Engine) error {
	rec := eng.DiskRecovery()
	if rec == nil {
		return fmt.Errorf("consistency: recovered engine has no recovery result")
	}
	winners := map[uint64]bool{}
	for _, id := range rec.Winners {
		winners[id] = true
	}
	if err := checkAttempts(attempts, winners, true, res.fault.err()); err != nil {
		return err
	}
	indexed, err := hasIndex(eng, "crashkv", "crashkv_v")
	if err != nil {
		return err
	}
	switch {
	case res.IndexErr != nil && !errors.Is(res.IndexErr, res.fault.err()):
		return fmt.Errorf("consistency: CREATE INDEX failed with %v, want an error wrapping %v", res.IndexErr, res.fault.err())
	case res.IndexTried && res.IndexErr == nil && !indexed:
		return fmt.Errorf("consistency: acknowledged CREATE INDEX lost")
	}
	rows, err := readCrashRows(eng)
	if err != nil {
		return err
	}
	if err := checkRows(attempts, func(a *CommitAttempt) bool { return winners[a.ID] }, rows); err != nil {
		return err
	}
	if !indexed {
		return nil
	}
	sess := eng.Session()
	for k, v := range rows {
		q, err := sess.Query("SELECT k FROM crashkv WHERE v = ?", v)
		if err != nil {
			return fmt.Errorf("consistency: crashkv lookup by v: %w", err)
		}
		if len(q.Rows) != 1 || q.Rows[0][0].Int() != k {
			return fmt.Errorf("consistency: lookup of v=%d found %v, want key %d", v, q.Rows, k)
		}
	}
	return nil
}

// hasIndex reports whether a table exists and carries the named index.
func hasIndex(eng *sqldb.Engine, table, index string) (bool, error) {
	if !eng.Catalog().HasTable(table) {
		return false, nil
	}
	meta, err := eng.Catalog().Table(table)
	if err != nil {
		return false, err
	}
	return slices.ContainsFunc(meta.Indexes, func(ix *catalog.Index) bool { return ix.Name == index }), nil
}

// MergeAttempts combines the attempt histories of chained runs (crash →
// recover → run → crash ...). Recovery restarts the transaction-id source
// above the log's high-water mark, so every LOGGED id is unique across
// lives; but an id that never reached the log (a rollback, or a commit
// attempted after the log died) is invisible to the next life and may be
// reused. Such an attempt can never win recovery or contribute contents, so
// on collision the later life's attempt is the one that counts.
func MergeAttempts(prev, next []CommitAttempt) []CommitAttempt {
	reused := map[uint64]bool{}
	for i := range next {
		reused[next[i].ID] = true
	}
	out := make([]CommitAttempt, 0, len(prev)+len(next))
	for i := range prev {
		if !reused[prev[i].ID] {
			out = append(out, prev[i])
		}
	}
	return append(out, next...)
}
