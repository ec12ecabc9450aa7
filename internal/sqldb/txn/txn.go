// Package txn implements the transaction layer of the embedded engine with
// three pluggable concurrency-control modes:
//
//   - Serial: one global database lock (shared for declared-read-only
//     transactions, exclusive otherwise). The caricature of a coarse-grained
//     engine: correct, simple, and quick to saturate.
//   - Locking: strict two-phase row locking with wait-die deadlock
//     avoidance. Conflicting write-heavy workloads abort and retry, which is
//     exactly the contention behaviour the BenchPress demo exploits when a
//     player flips a workload to read-heavy to "boost throughput due to
//     reduced lock contention".
//   - MVCC: snapshot isolation with first-updater-wins write conflicts, in
//     the Hekaton style over the storage layer's version chains.
//
// All three modes share one commit path: versions written by the transaction
// are stamped with a commit timestamp drawn from a global clock under a
// commit mutex, so snapshot readers always observe fully-stamped commits.
package txn

import (
	"fmt"
	"sync"
	"sync/atomic"

	"benchpress/internal/sqldb/storage"
	"benchpress/internal/sqlval"
)

// Mode selects the concurrency-control engine.
type Mode uint8

const (
	// Serial takes a global database lock per transaction.
	Serial Mode = iota
	// Locking uses strict two-phase row locking with wait-die.
	Locking
	// MVCC uses snapshot isolation with first-updater-wins.
	MVCC
)

// String returns the engine name of the mode.
func (m Mode) String() string {
	switch m {
	case Serial:
		return "serial"
	case Locking:
		return "locking"
	case MVCC:
		return "mvcc"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Manager coordinates transactions over a set of storage tables.
type Manager struct {
	mode     Mode
	clock    atomic.Uint64 // last assigned commit timestamp
	nextTxn  atomic.Uint64 // transaction id source (ids double as wait-die age)
	commitMu sync.Mutex    // serializes commit stamping
	global   sync.RWMutex  // Serial mode database lock
	locks    *lockManager  // Locking mode lock table
	epochs   epochTable    // in-flight MVCC snapshots, for the GC horizon

	// nowait, when set, makes every engine non-blocking: Serial TryBegin
	// returns ErrBusy instead of queueing on the global lock and the
	// Locking engine aborts conflicting requests outright instead of
	// letting wait-die park the older transaction. The consistency harness
	// uses it for deterministic single-goroutine interleaving. Set before
	// concurrent use; it is not synchronized.
	nowait bool

	// mutation selectively disables one engine invariant (see Mutation).
	// Test-only: the consistency harness flips it to prove its checkers
	// detect real engine bugs. Set before concurrent use.
	mutation Mutation

	// OnCommit, when set, runs after a writing transaction's commit record
	// is durable-ordered but before its versions become visible. The engine
	// uses it to append to the WAL and emulate commit latency. The
	// transaction is fully populated but not yet stamped; hooks may read
	// its identity and write set but must not retain it.
	OnCommit func(t *Txn) error
}

// Mutation selects one deliberately broken engine invariant. The zero value
// leaves the engine correct. These switches exist solely so the consistency
// harness can validate itself: flipping one must make the corresponding
// checker fail, proving the harness detects the class of bug it claims to.
type Mutation uint8

const (
	// MutateNone leaves every invariant intact.
	MutateNone Mutation = iota
	// MutateSkipFirstUpdaterWins makes MVCC write claims ignore versions
	// committed after the claimant's snapshot, so concurrent writers to one
	// row both commit and the first update is silently lost.
	MutateSkipFirstUpdaterWins
	// MutateSkipReadLocks makes the Locking engine skip shared locks on
	// plain reads, admitting non-repeatable reads and broken replay order.
	MutateSkipReadLocks
	// MutateSharedSerialWriters admits Serial-mode writers under the shared
	// side of the global lock, so "serial" transactions interleave.
	MutateSharedSerialWriters
)

// SetNoWait switches the manager into non-blocking mode (see the nowait
// field). Must be called before transactions run concurrently.
func (m *Manager) SetNoWait(v bool) { m.nowait = v }

// SetMutation installs a deliberate invariant break (harness self-validation
// only). Must be called before transactions run concurrently.
func (m *Manager) SetMutation(mu Mutation) { m.mutation = mu }

// NewManager returns a Manager running the given mode.
func NewManager(mode Mode) *Manager {
	m := &Manager{mode: mode}
	if mode == Locking {
		m.locks = newLockManager()
	}
	// Start the clock at 1 so that 0 never appears as a commit timestamp.
	m.clock.Store(1)
	return m
}

// Mode returns the manager's concurrency-control mode.
func (m *Manager) Mode() Mode { return m.mode }

// AdvanceTxnID raises the transaction id source so no future transaction is
// assigned an id at or below floor. Disk recovery calls it with the log's
// txn-id high-water mark: a restarted engine reusing an id that already has a
// commit record on disk would make a new loser transaction's updates replay
// as committed. Ids double as wait-die ages, so this also keeps post-restart
// transactions younger than every pre-crash one.
func (m *Manager) AdvanceTxnID(floor uint64) {
	for {
		cur := m.nextTxn.Load()
		if cur >= floor || m.nextTxn.CompareAndSwap(cur, floor) {
			return
		}
	}
}

// Horizon returns a timestamp at or below every active snapshot; versions
// deleted before it are unreachable and may be vacuumed.
func (m *Manager) Horizon() uint64 {
	return m.epochs.min(m.clock.Load())
}

// Clock returns the last assigned commit timestamp. Vacuum uses it as the
// retirement stamp for unlinked rows: every transaction active at unlink
// time has a snapshot at or below this value, so once Horizon passes it the
// unlinked slots are unreachable and safe to recycle.
func (m *Manager) Clock() uint64 { return m.clock.Load() }

// opKind classifies a write-set entry.
type opKind uint8

const (
	opInsert opKind = iota
	opUpdate
	opDelete
	opClaim // SELECT ... FOR UPDATE write intent under MVCC
)

// writeOp is one undo/redo record in a transaction's write set.
type writeOp struct {
	kind  opKind
	table *storage.Table
	rowID storage.RowID
	row   *storage.Row
	newV  *storage.Version  // version installed by this txn (insert/update)
	oldV  *storage.Version  // version whose End this txn marked
	disp  storage.Displaced // primary mapping an insert overwrote (rollback restore)
}

// Txn is an in-flight transaction.
type Txn struct {
	mgr      *Manager
	id       uint64
	snap     uint64
	readonly bool
	done     bool
	// sharedGlobal records which side of the Serial global lock this
	// transaction holds (mutations can put writers on the shared side).
	sharedGlobal bool
	// serial is the transaction's serialization timestamp, stamped at
	// commit: the new commit timestamp for writers, the current clock value
	// for read-only commits. Zero until committed.
	serial uint64
	// committed and nwrites preserve the outcome for Info after finish
	// clears the write set.
	committed bool
	nwrites   int
	writes    []writeOp
	held      map[lockKey]lockMode
	// claimed tracks rows already write-claimed under MVCC so repeated
	// writes to one row within the txn skip the conflict check.
	claimed map[*storage.Row]bool
	// slot is the epoch-table slot holding this transaction's snapshot
	// (MVCC only); -1 when the registration spilled to the overflow map.
	slot int32
}

// Begin starts a transaction. The readonly hint lets the Serial engine admit
// concurrent readers; it is advisory for the other engines.
func (m *Manager) Begin(readonly bool) *Txn {
	t := &Txn{
		mgr:      m,
		id:       m.nextTxn.Add(1),
		readonly: readonly,
	}
	switch m.mode {
	case Serial:
		t.sharedGlobal = readonly || m.mutation == MutateSharedSerialWriters
		if t.sharedGlobal {
			m.global.RLock()
		} else {
			m.global.Lock()
		}
		t.snap = m.clock.Load()
	case Locking:
		t.held = map[lockKey]lockMode{}
		t.snap = m.clock.Load()
	case MVCC:
		t.claimed = map[*storage.Row]bool{}
		// Pre-register with a conservative snapshot before taking the real
		// one: a concurrent Horizon() that misses this registration read
		// the clock before our pre-registration value, so it can never
		// exceed the snapshot we end up with. Without this, Horizon could
		// advance past a transaction between its clock read and its
		// appearance in the epoch table, letting vacuum prune versions the
		// new snapshot still needs.
		t.slot = m.epochs.enter(t.id, m.clock.Load())
		t.snap = m.clock.Load()
		m.epochs.update(t.slot, t.id, t.snap)
	}
	return t
}

// TryBegin starts a transaction like Begin, except that in nowait mode the
// Serial engine attempts the global lock without queueing and returns ErrBusy
// (retryable) when it is held incompatibly. The other engines never block in
// Begin, so TryBegin is identical to Begin for them.
func (m *Manager) TryBegin(readonly bool) (*Txn, error) {
	if m.mode != Serial || !m.nowait {
		return m.Begin(readonly), nil
	}
	t := &Txn{
		mgr:      m,
		id:       m.nextTxn.Add(1),
		readonly: readonly,
	}
	t.sharedGlobal = readonly || m.mutation == MutateSharedSerialWriters
	if t.sharedGlobal {
		if !m.global.TryRLock() {
			return nil, ErrBusy
		}
	} else {
		if !m.global.TryLock() {
			return nil, ErrBusy
		}
	}
	t.snap = m.clock.Load()
	return t, nil
}

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// Snapshot returns the transaction's snapshot timestamp.
func (t *Txn) Snapshot() uint64 { return t.snap }

// Info is a transaction's identity and outcome, exposed for history-recording
// harnesses and durability hooks.
type Info struct {
	// ID is the engine-assigned transaction id.
	ID uint64
	// Snapshot is the snapshot timestamp taken at begin.
	Snapshot uint64
	// SerialTS is the serialization timestamp stamped at commit: the commit
	// timestamp for writers, the clock value observed at commit for
	// read-only transactions. Zero while in flight or after an abort.
	SerialTS uint64
	// Committed reports whether Commit succeeded.
	Committed bool
	// Writes is the number of write-set entries (including MVCC claims).
	Writes int
}

// Info returns the transaction's identity and (once finished) outcome. Valid
// both in flight and after finish.
func (t *Txn) Info() Info {
	w := t.nwrites
	if !t.done {
		w = len(t.writes)
	}
	return Info{ID: t.id, Snapshot: t.snap, SerialTS: t.serial, Committed: t.committed, Writes: w}
}

// WriteKind classifies one WriteRec.
type WriteKind uint8

const (
	// WriteInsert is a row insertion.
	WriteInsert WriteKind = iota
	// WriteUpdate is a row replacement.
	WriteUpdate
	// WriteDelete is a row removal.
	WriteDelete
)

// WriteRec is one materialized write-set entry, exposed to durability hooks
// (WAL payload encoders). Data is the new image for inserts and updates and
// the deleted image for deletes; Old is the replaced image for updates (nil
// for inserts and deletes). Both alias engine memory and must not be mutated
// or retained past the hook. RowID identifies the row so disk-resident
// engines can address its heap slot.
type WriteRec struct {
	Table string
	Kind  WriteKind
	RowID storage.RowID
	Data  []sqlval.Value
	Old   []sqlval.Value
}

// WriteSet materializes the transaction's logical writes in program order,
// skipping pure claims. Intended for OnCommit durability hooks; allocates.
func (t *Txn) WriteSet() []WriteRec {
	out := make([]WriteRec, 0, len(t.writes))
	for i := range t.writes {
		op := &t.writes[i]
		switch op.kind {
		case opInsert:
			out = append(out, WriteRec{Table: op.table.Meta.Name, Kind: WriteInsert, RowID: op.rowID, Data: op.newV.Data})
		case opUpdate:
			out = append(out, WriteRec{Table: op.table.Meta.Name, Kind: WriteUpdate, RowID: op.rowID, Data: op.newV.Data, Old: op.oldV.Data})
		case opDelete:
			out = append(out, WriteRec{Table: op.table.Meta.Name, Kind: WriteDelete, RowID: op.rowID, Data: op.oldV.Data})
		}
	}
	return out
}

// view returns the storage visibility view for this transaction.
func (t *Txn) view() storage.View {
	return storage.View{
		TxnID:    t.id,
		SnapTS:   t.snap,
		Snapshot: t.mgr.mode == MVCC,
	}
}

// FastReadView returns the transaction's visibility view when a plain
// (non-FOR UPDATE) read requires no per-row concurrency-control work, i.e.
// outside the Locking engine, which must acquire a shared lock per row.
// Batched scans use it to resolve row visibility directly — one view
// construction and liveness check per scan instead of per row — with
// semantics identical to Read(tbl, id, false).
func (t *Txn) FastReadView() (storage.View, bool) {
	if t.done || t.mgr.mode == Locking {
		return storage.View{}, false
	}
	return t.view(), true
}

// Read returns the row image visible to this transaction, or nil when the
// row is invisible. With forUpdate set, the row is locked (Locking) or
// write-claimed (MVCC) first, so the returned image remains stable until the
// transaction finishes.
func (t *Txn) Read(tbl *storage.Table, id storage.RowID, forUpdate bool) ([]sqlval.Value, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	row, ok := tbl.Row(id)
	if !ok {
		return nil, nil
	}
	switch t.mgr.mode {
	case Serial:
		// The global lock is already held.
	case Locking:
		mode := lockShared
		if forUpdate {
			mode = lockExclusive
		}
		if mode == lockShared && t.mgr.mutation == MutateSkipReadLocks {
			break // deliberately broken: unprotected read
		}
		if err := t.lock(tbl, id, mode); err != nil {
			return nil, err
		}
	case MVCC:
		if forUpdate {
			if err := t.claim(tbl, id, row); err != nil {
				return nil, err
			}
		}
	}
	v := t.view().Visible(row)
	if v == nil {
		return nil, nil
	}
	return v.Data, nil
}

// lock acquires a row lock under the Locking engine, recording it for
// release at transaction end.
func (t *Txn) lock(tbl *storage.Table, id storage.RowID, mode lockMode) error {
	k := lockKey{table: tbl, row: id}
	if held, ok := t.held[k]; ok && (held == lockExclusive || mode == lockShared) {
		return nil
	}
	if err := t.mgr.locks.acquire(t.id, k, mode, t.mgr.nowait); err != nil {
		return err
	}
	if held, ok := t.held[k]; !ok || mode > held {
		t.held[k] = mode
	}
	return nil
}

// claim write-claims a row under MVCC (first-updater-wins): it marks the
// visible version's End with this transaction so that concurrent writers
// conflict. Safe to call repeatedly.
func (t *Txn) claim(tbl *storage.Table, id storage.RowID, row *storage.Row) error {
	if _, ok := t.claimed[row]; ok {
		return nil
	}
	row.Lock()
	defer row.Unlock()
	v := row.Latest()
	if v == nil {
		return nil // nothing to claim; reader will see the row as absent
	}
	myMark := storage.TxnMark | t.id
	if storage.Uncommitted(v.Begin()) {
		if storage.MarkOwner(v.Begin()) != t.id {
			return ErrWriteConflict // uncommitted write by someone else
		}
		return nil // my own version is already exclusive
	}
	if v.Begin() > t.snap && t.mgr.mutation != MutateSkipFirstUpdaterWins {
		return ErrWriteConflict // committed after my snapshot
	}
	switch {
	case v.End() == storage.Infinity:
		v.SetEnd(myMark)
		t.writes = append(t.writes, writeOp{kind: opClaim, table: tbl, rowID: id, row: row, oldV: v})
		t.claimed[row] = true
		return nil
	case storage.Uncommitted(v.End()):
		if storage.MarkOwner(v.End()) == t.id {
			return nil
		}
		return ErrWriteConflict // claimed/deleted by another in-flight txn
	case v.End() <= t.snap:
		// The delete is already visible to this snapshot: the row is
		// simply gone, which the caller's visibility check will report.
		// Claiming a tombstone is not a conflict.
		return nil
	default:
		return ErrWriteConflict // deleted after my snapshot: true conflict
	}
}

// Insert adds a new row. The unique checks and index maintenance happen in
// the storage layer; the version is stamped at commit.
func (t *Txn) Insert(tbl *storage.Table, data []sqlval.Value) error {
	if t.done {
		return ErrTxnDone
	}
	id, row, disp, err := tbl.Insert(t.id, data)
	if err != nil {
		return err
	}
	if t.mgr.mode == Locking {
		if err := t.lock(tbl, id, lockExclusive); err != nil {
			// Cannot conflict in practice (fresh row), but stay safe.
			tbl.RollbackInsert(id, data, disp)
			return err
		}
	}
	t.writes = append(t.writes, writeOp{kind: opInsert, table: tbl, rowID: id, row: row, newV: row.Latest(), disp: disp})
	if t.claimed != nil {
		t.claimed[row] = true
	}
	return nil
}

// Update replaces the visible image of a row with newData. The caller must
// have established visibility (normally via Read during the scan).
func (t *Txn) Update(tbl *storage.Table, id storage.RowID, newData []sqlval.Value) error {
	if t.done {
		return ErrTxnDone
	}
	row, ok := tbl.Row(id)
	if !ok {
		return nil
	}
	switch t.mgr.mode {
	case Locking:
		if err := t.lock(tbl, id, lockExclusive); err != nil {
			return err
		}
	case MVCC:
		if err := t.claim(tbl, id, row); err != nil {
			return err
		}
	}
	myMark := storage.TxnMark | t.id
	row.Lock()
	old := row.Latest()
	if old == nil {
		row.Unlock()
		return nil
	}
	if storage.Uncommitted(old.Begin()) && storage.MarkOwner(old.Begin()) != t.id {
		// Another in-flight writer: impossible under Locking/Serial, a
		// missed claim under MVCC.
		row.Unlock()
		return ErrWriteConflict
	}
	prevEnd := old.End()
	if prevEnd == storage.Infinity || prevEnd == myMark {
		old.SetEnd(myMark)
	} else {
		row.Unlock()
		return ErrWriteConflict
	}
	newV := storage.NewVersion(newData, myMark, storage.Infinity, old)
	row.SetLatest(newV)
	row.Unlock()
	if err := tbl.AddVersionIndexEntries(id, old.Data, newData); err != nil {
		// Unique violation: the new image never becomes visible. Unwind
		// the chain head and the old version's end mark, then surface the
		// race as a retryable conflict — the loser re-reads committed
		// state and re-decides (a genuine duplicate then fails its own
		// predicate check instead of retrying forever).
		row.Lock()
		if row.Latest() == newV {
			row.SetLatest(old)
		}
		old.SetEnd(prevEnd)
		row.Unlock()
		return fmt.Errorf("txn: update unique violation: %v: %w", err, ErrWriteConflict)
	}
	t.writes = append(t.writes, writeOp{kind: opUpdate, table: tbl, rowID: id, row: row, newV: newV, oldV: old})
	if t.claimed != nil {
		t.claimed[row] = true
	}
	return nil
}

// Delete removes the visible image of a row.
func (t *Txn) Delete(tbl *storage.Table, id storage.RowID) error {
	if t.done {
		return ErrTxnDone
	}
	row, ok := tbl.Row(id)
	if !ok {
		return nil
	}
	switch t.mgr.mode {
	case Locking:
		if err := t.lock(tbl, id, lockExclusive); err != nil {
			return err
		}
	case MVCC:
		if err := t.claim(tbl, id, row); err != nil {
			return err
		}
	}
	myMark := storage.TxnMark | t.id
	deleteMark := myMark | storage.DeleteFlag
	row.Lock()
	defer row.Unlock()
	v := row.Latest()
	if v == nil {
		return nil
	}
	if storage.Uncommitted(v.Begin()) && storage.MarkOwner(v.Begin()) != t.id {
		return ErrWriteConflict
	}
	if v.End() == storage.Infinity || v.End() == myMark {
		v.SetEnd(deleteMark)
	} else {
		return ErrWriteConflict
	}
	t.writes = append(t.writes, writeOp{kind: opDelete, table: tbl, rowID: id, row: row, oldV: v})
	return nil
}

// HasWrites reports whether the transaction has written anything.
func (t *Txn) HasWrites() bool { return len(t.writes) > 0 }

// Commit makes the transaction's writes durable and visible.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	m := t.mgr
	// Durability (WAL append + emulated sync latency) happens before the
	// versions become visible, outside the stamping critical section so
	// that group commit can overlap many waiters.
	if m.OnCommit != nil && len(t.writes) > 0 {
		if err := m.OnCommit(t); err != nil {
			t.Abort()
			return fmt.Errorf("txn: commit durability failed: %w", err)
		}
	}
	if len(t.writes) > 0 {
		m.commitMu.Lock()
		ts := m.clock.Load() + 1
		myMark := storage.TxnMark | t.id
		// Pass 1: stamp real writes. Pass 2: release claims that no later
		// write superseded (their End is still this transaction's mark).
		for i := range t.writes {
			op := &t.writes[i]
			if op.kind == opClaim {
				continue
			}
			op.row.Lock()
			switch op.kind {
			case opInsert:
				op.newV.SetBegin(ts)
			case opUpdate:
				op.newV.SetBegin(ts)
				if op.oldV != nil && op.oldV.End() == myMark {
					op.oldV.SetEnd(ts)
				}
			case opDelete:
				if op.oldV.End() == myMark|storage.DeleteFlag {
					op.oldV.SetEnd(ts)
				}
			}
			op.row.Unlock()
		}
		for i := range t.writes {
			op := &t.writes[i]
			if op.kind != opClaim {
				continue
			}
			op.row.Lock()
			if op.oldV.End() == myMark {
				op.oldV.SetEnd(storage.Infinity)
			}
			op.row.Unlock()
		}
		m.clock.Store(ts)
		m.commitMu.Unlock()
		t.serial = ts
	} else {
		// Read-only commit: serialize at the clock value observed now.
		// Under the Serial and Locking engines every conflicting writer
		// either committed before this load (its timestamp is <= the value)
		// or is still excluded by a lock this transaction holds (and will
		// stamp strictly later), so replaying the reads at this position is
		// a valid serialization.
		t.serial = m.clock.Load()
	}
	t.committed = true
	t.finish()
	return nil
}

// Abort rolls back every write and releases all locks.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	myMark := storage.TxnMark | t.id
	// Undo in reverse order so that chained writes to one row unwind.
	for i := len(t.writes) - 1; i >= 0; i-- {
		op := t.writes[i]
		switch op.kind {
		case opInsert:
			op.table.RollbackInsert(op.rowID, op.newV.Data, op.disp)
		case opUpdate:
			op.row.Lock()
			if op.row.Latest() == op.newV {
				op.row.SetLatest(op.newV.Next())
			}
			if op.oldV != nil && op.oldV.End() == myMark {
				op.oldV.SetEnd(storage.Infinity)
			}
			op.row.Unlock()
			if op.oldV != nil {
				op.table.RemoveVersionIndexEntries(op.rowID, op.newV.Data, op.oldV.Data)
			}
		case opDelete:
			op.row.Lock()
			if op.oldV.End() == myMark|storage.DeleteFlag {
				op.oldV.SetEnd(storage.Infinity)
			}
			op.row.Unlock()
		case opClaim:
			op.row.Lock()
			if op.oldV.End() == myMark {
				op.oldV.SetEnd(storage.Infinity)
			}
			op.row.Unlock()
		}
	}
	t.finish()
}

// finish releases engine resources and marks the transaction done.
func (t *Txn) finish() {
	m := t.mgr
	switch m.mode {
	case Serial:
		if t.sharedGlobal {
			m.global.RUnlock()
		} else {
			m.global.Unlock()
		}
	case Locking:
		m.locks.release(t.id, t.held)
	case MVCC:
		m.epochs.exit(t.slot, t.id)
	}
	t.nwrites = len(t.writes)
	t.writes = nil
	t.claimed = nil
	t.done = true
}
