// Package sqldb is the embedded relational engine of the BenchPress
// reproduction: an in-memory, multi-version row store with a SQL front end
// and three pluggable concurrency-control modes. It stands in for the
// JDBC-connected DBMSs (MySQL, PostgreSQL, Oracle, Derby, ...) that the
// OLTP-Bench paper drives, so that the whole testbed is self-contained.
//
// The unit of work is a Session, which is what a benchmark worker's
// connection maps to. Sessions are not safe for concurrent use; an Engine is.
package sqldb

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"benchpress/internal/sqldb/catalog"
	"benchpress/internal/sqldb/exec"
	"benchpress/internal/sqldb/parser"
	"benchpress/internal/sqldb/storage"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/sqlval"
	"benchpress/internal/wal"
)

// Config describes one engine personality.
type Config struct {
	// Name identifies the engine instance (e.g. "gomvcc").
	Name string
	// Mode selects the concurrency-control engine.
	Mode txn.Mode
	// WALPolicy selects the durability emulation (default SyncNone).
	WALPolicy wal.SyncPolicy
	// GroupCommitInterval is the flush cadence when WALPolicy is SyncGroup
	// or SyncAsync (default 200us).
	GroupCommitInterval time.Duration
	// CommitDelay adds fixed latency to every writing commit, emulating
	// per-commit work (e.g. synchronous replication). Zero disables it.
	CommitDelay time.Duration
	// VacuumInterval enables the online background vacuum: every interval,
	// one row-store segment per table is swept at the transaction manager's
	// current low-watermark. Zero disables the goroutine; Engine.Vacuum
	// remains available for manual, deterministic reclamation.
	VacuumInterval time.Duration
	// WALSink, when non-nil, receives the WAL's flushed bytes (default
	// discard); a RAM engine writes one framed commit record per writing
	// commit. The consistency harness points it at a fault-injecting
	// writer to emulate crashes at arbitrary sync boundaries.
	WALSink io.Writer

	// DataDir, when non-empty, makes the engine disk-resident (OpenDisk):
	// DataDir/wal.log is its only durable state, one commit record per
	// writing commit carrying the rows it leaves behind, replayed in full
	// on reopen.
	DataDir string
	// DiskWAL is the surviving log image a disk-resident engine opened
	// without a DataDir replays; its new records go to WALSink. The
	// crash-torture harness runs the disk arm this way.
	DiskWAL []byte
}

// Engine is one embedded database instance.
type Engine struct {
	cfg  Config
	cat  *catalog.Catalog
	mgr  *txn.Manager
	log  *wal.Log
	disk *diskStore // non-nil for disk-resident engines (OpenDisk)

	mu     sync.RWMutex
	tables map[string]*storage.Table

	planMu sync.RWMutex
	stmts  map[string]*cachedStmt

	vacStop   chan struct{}
	vacWG     sync.WaitGroup
	closeOnce sync.Once
}

// cachedStmt is one merged statement-cache entry: the parsed AST, the
// compiled plan (nil for DDL and transaction control), and the autocommit
// read-only classification, all filled by a single-flight compilation. The
// hot path (Session.Exec, Prepare) takes one read-lock hit to fetch the
// entry and then never touches an engine-wide lock again.
type cachedStmt struct {
	// done is closed once the entry is fully populated; lookups that race
	// the compiling goroutine block on it instead of compiling again.
	done chan struct{}
	ast  parser.Statement
	plan exec.Plan
	// readonly marks a bare SELECT without FOR UPDATE: its autocommitted
	// execution may run in a declared-read-only transaction.
	readonly bool
	err      error
}

// Open creates an engine with the given configuration.
func Open(cfg Config) *Engine {
	e := &Engine{
		cfg:    cfg,
		cat:    catalog.New(),
		mgr:    txn.NewManager(cfg.Mode),
		tables: map[string]*storage.Table{},
		stmts:  map[string]*cachedStmt{},
	}
	if cfg.WALPolicy != wal.SyncNone || cfg.CommitDelay > 0 || cfg.WALSink != nil {
		e.log = wal.New(wal.Options{Policy: cfg.WALPolicy, GroupInterval: cfg.GroupCommitInterval, W: cfg.WALSink})
		delay := cfg.CommitDelay
		e.mgr.OnCommit = func(t *txn.Txn) error {
			// One commit record per writing commit, claims-only ones
			// included; RAM engines have no recovery to replay a write set
			// into, so the record carries only the transaction id.
			if err := e.log.AppendRecord(wal.EncodeCommit(t.ID())); err != nil {
				return err
			}
			if delay > 0 {
				time.Sleep(delay)
			}
			return nil
		}
	}
	if cfg.VacuumInterval > 0 {
		e.vacStop = make(chan struct{})
		e.vacWG.Add(1)
		go func() {
			defer e.vacWG.Done()
			e.vacuumLoop()
		}()
	}
	return e
}

// vacuumLoop is the online vacuum: each tick it sweeps the next row-store
// segment of every table at a fresh low-watermark, so reclamation cost is
// spread thin across the run instead of stopping the world. It exits when
// Close fires.
func (e *Engine) vacuumLoop() {
	ticker := time.NewTicker(e.cfg.VacuumInterval)
	defer ticker.Stop()
	cursor := 0
	for {
		select {
		case <-ticker.C:
			horizon, now := e.mgr.Horizon(), e.mgr.Clock()
			for _, t := range e.Tables() {
				t.VacuumSegment(cursor%t.Segments(), horizon, now)
			}
			cursor++
		case <-e.vacStop:
			return
		}
	}
}

// Name returns the engine instance name.
func (e *Engine) Name() string { return e.cfg.Name }

// Mode returns the engine's concurrency-control mode.
func (e *Engine) Mode() txn.Mode { return e.cfg.Mode }

// Close releases background resources (the vacuum goroutine and the WAL
// flusher). It is idempotent.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		if e.vacStop != nil {
			close(e.vacStop)
			e.vacWG.Wait()
		}
		e.log.Close()
		if e.disk != nil {
			e.disk.close()
		}
	})
}

// WAL exposes the engine's log for statistics; may be nil.
func (e *Engine) WAL() *wal.Log { return e.log }

// TxnManager exposes the engine's transaction manager. The consistency
// harness uses it for nowait scheduling and mutation switches; regular
// clients should stay on the Session surface.
func (e *Engine) TxnManager() *txn.Manager { return e.mgr }

// StorageTable implements exec.Resolver.
func (e *Engine) StorageTable(name string) (*storage.Table, error) {
	e.mu.RLock()
	t, ok := e.tables[strings.ToLower(name)]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sqldb: table %q does not exist", name)
	}
	return t, nil
}

// Catalog exposes schema metadata.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Tables lists the physical tables.
func (e *Engine) Tables() []*storage.Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*storage.Table, 0, len(e.tables))
	for _, t := range e.tables {
		out = append(out, t)
	}
	return out
}

// Vacuum reclaims dead rows across all tables, returning slots reclaimed.
func (e *Engine) Vacuum() int {
	horizon, now := e.mgr.Horizon(), e.mgr.Clock()
	total := 0
	for _, t := range e.Tables() {
		total += t.Vacuum(horizon, now)
	}
	return total
}

// TruncateAll empties every table (the game's "reset the database" action).
// Callers must quiesce the workload first. On a disk-backed engine the first
// failure to log a truncate is returned; the in-memory tables are emptied
// regardless, and recovery re-derives the disk image from the WAL.
func (e *Engine) TruncateAll() error {
	var first error
	for _, t := range e.Tables() {
		t.Truncate()
		if e.disk != nil {
			if err := e.disk.onTruncate(t.Meta.Name); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// RowCount sums live row slots over all tables.
func (e *Engine) RowCount() int {
	n := 0
	for _, t := range e.Tables() {
		n += t.RowCount()
	}
	return n
}

// cachedStmt returns the cache entry for sql, parsing and compiling it on
// first use. Concurrent lookups of one uncached statement compile it exactly
// once (single-flight); everyone else blocks on the entry's done channel.
// The steady state is a single read-lock hit.
func (e *Engine) cachedStmt(sql string) (*cachedStmt, error) {
	e.planMu.RLock()
	cs, ok := e.stmts[sql]
	e.planMu.RUnlock()
	if !ok {
		e.planMu.Lock()
		cs, ok = e.stmts[sql]
		if !ok {
			cs = &cachedStmt{done: make(chan struct{})}
			e.stmts[sql] = cs
			e.planMu.Unlock()
			e.compileInto(cs, sql)
		} else {
			e.planMu.Unlock()
		}
	}
	<-cs.done
	if cs.err != nil {
		return nil, cs.err
	}
	return cs, nil
}

// compileInto populates a fresh cache entry. Compilation runs outside the
// cache lock so a slow statement never blocks unrelated lookups; failed
// entries are evicted so the next attempt (e.g. after the missing table is
// created) retries from scratch.
func (e *Engine) compileInto(cs *cachedStmt, sql string) {
	defer close(cs.done)
	ast, err := parser.Parse(sql)
	if err != nil {
		cs.err = err
		e.evict(sql, cs)
		return
	}
	cs.ast = ast
	switch s := ast.(type) {
	case *parser.Select:
		cs.readonly = !s.ForUpdate
	case *parser.Insert, *parser.Update, *parser.Delete:
	default:
		return // DDL / transaction control: no plan
	}
	plan, err := exec.Compile(ast, e)
	if err != nil {
		cs.err = err
		e.evict(sql, cs)
		return
	}
	cs.plan = plan
}

// evict removes a failed entry, unless DDL already replaced the whole cache.
func (e *Engine) evict(sql string, cs *cachedStmt) {
	e.planMu.Lock()
	if e.stmts[sql] == cs {
		delete(e.stmts, sql)
	}
	e.planMu.Unlock()
}

// invalidatePlans drops every cached statement after DDL.
func (e *Engine) invalidatePlans() {
	e.planMu.Lock()
	e.stmts = map[string]*cachedStmt{}
	e.planMu.Unlock()
}

// ErrNoTxn is returned by Commit/Rollback without an open transaction.
var ErrNoTxn = errors.New("sqldb: no transaction in progress")

// Session is one connection to the engine. It is not safe for concurrent
// use, mirroring a JDBC connection.
type Session struct {
	eng *Engine
	tx  *txn.Txn
	// last is the Info of the most recently finished transaction on this
	// session (explicit or autocommit), for history-recording harnesses.
	last txn.Info
	// paramBuf is the reusable argument-conversion buffer. Sessions are
	// single-goroutine (they carry transaction state), and no plan retains
	// its params slice past Execute, so one buffer per session suffices.
	paramBuf []sqlval.Value
}

// Session opens a new connection.
func (e *Engine) Session() *Session { return &Session{eng: e} }

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.tx != nil }

// Begin starts an explicit read-write transaction.
func (s *Session) Begin() error { return s.begin(false) }

// BeginReadOnly starts an explicit transaction declared read-only (the
// Serial engine admits concurrent declared-read-only transactions).
func (s *Session) BeginReadOnly() error { return s.begin(true) }

func (s *Session) begin(readonly bool) error {
	if s.tx != nil {
		return errors.New("sqldb: transaction already in progress")
	}
	// TryBegin so that a manager in nowait mode surfaces ErrBusy instead of
	// queueing; outside nowait mode it is identical to Begin.
	t, err := s.eng.mgr.TryBegin(readonly)
	if err != nil {
		return err
	}
	s.tx = t
	return nil
}

// Commit commits the open transaction.
func (s *Session) Commit() error {
	if s.tx == nil {
		return ErrNoTxn
	}
	err := s.tx.Commit()
	s.last = s.tx.Info()
	s.tx = nil
	return err
}

// Rollback aborts the open transaction.
func (s *Session) Rollback() error {
	if s.tx == nil {
		return ErrNoTxn
	}
	s.tx.Abort()
	s.last = s.tx.Info()
	s.tx = nil
	return nil
}

// TxnInfo returns the identity of the session's open transaction, or of the
// most recently finished one when none is open (its Committed and SerialTS
// fields then carry the outcome).
func (s *Session) TxnInfo() txn.Info {
	if s.tx != nil {
		return s.tx.Info()
	}
	return s.last
}

// Exec parses (with caching) and executes one SQL statement. Without an open
// transaction, the statement runs in its own autocommitted transaction.
// Parameters accept the Go types supported by sqlval.FromGo.
func (s *Session) Exec(sql string, args ...any) (*exec.Result, error) {
	cs, err := s.eng.cachedStmt(sql)
	if err != nil {
		return nil, err
	}
	if cs.plan == nil {
		switch cs.ast.(type) {
		case *parser.Begin:
			return &exec.Result{}, s.Begin()
		case *parser.Commit:
			return &exec.Result{}, s.Commit()
		case *parser.Rollback:
			return &exec.Result{}, s.Rollback()
		default:
			if s.tx != nil {
				return nil, errors.New("sqldb: DDL inside a transaction is not supported")
			}
			return s.eng.execDDL(cs.ast)
		}
	}
	params, err := s.convertArgs(args)
	if err != nil {
		return nil, err
	}
	if s.tx != nil {
		return cs.plan.Execute(s.tx, params)
	}
	// Autocommit: read-only for bare SELECTs without FOR UPDATE.
	tx := s.eng.mgr.Begin(cs.readonly)
	res, err := cs.plan.Execute(tx, params)
	if err != nil {
		tx.Abort()
		s.last = tx.Info()
		return nil, err
	}
	err = tx.Commit()
	s.last = tx.Info()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Query is Exec for statements expected to return rows.
func (s *Session) Query(sql string, args ...any) (*exec.Result, error) {
	return s.Exec(sql, args...)
}

// QueryRow executes and returns the first row, or nil when there is none.
func (s *Session) QueryRow(sql string, args ...any) ([]sqlval.Value, error) {
	res, err := s.Exec(sql, args...)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, nil
	}
	return res.Rows[0], nil
}

// Stmt is a prepared statement bound to a session. It carries the compiled
// plan and its autocommit classification, so repeated execution touches no
// engine-wide lock at all.
type Stmt struct {
	s        *Session
	sql      string
	plan     exec.Plan
	readonly bool
}

// Prepare compiles a DML statement for repeated execution.
func (s *Session) Prepare(sql string) (*Stmt, error) {
	cs, err := s.eng.cachedStmt(sql)
	if err != nil {
		return nil, err
	}
	if cs.plan == nil {
		return nil, fmt.Errorf("exec: cannot compile %T", cs.ast)
	}
	return &Stmt{s: s, sql: sql, plan: cs.plan, readonly: cs.readonly}, nil
}

// Exec runs the prepared statement in the session's current transaction (or
// autocommitted, read-only for bare SELECTs just like Session.Exec).
func (st *Stmt) Exec(args ...any) (*exec.Result, error) {
	params, err := st.s.convertArgs(args)
	if err != nil {
		return nil, err
	}
	if st.s.tx != nil {
		return st.plan.Execute(st.s.tx, params)
	}
	tx := st.s.eng.mgr.Begin(st.readonly)
	res, err := st.plan.Execute(tx, params)
	if err != nil {
		tx.Abort()
		st.s.last = tx.Info()
		return nil, err
	}
	err = tx.Commit()
	st.s.last = tx.Info()
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Session) convertArgs(args []any) ([]sqlval.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	if cap(s.paramBuf) < len(args) {
		s.paramBuf = make([]sqlval.Value, len(args))
	}
	params := s.paramBuf[:len(args)]
	for i, a := range args {
		v, err := sqlval.FromGo(a)
		if err != nil {
			return nil, fmt.Errorf("sqldb: argument %d: %w", i+1, err)
		}
		params[i] = v
	}
	return params, nil
}

// execDDL applies a DDL statement.
func (e *Engine) execDDL(ast parser.Statement) (*exec.Result, error) {
	defer e.invalidatePlans()
	switch d := ast.(type) {
	case *parser.CreateTable:
		if e.cat.HasTable(d.Name) {
			if d.IfNotExists {
				return &exec.Result{}, nil
			}
			return nil, fmt.Errorf("sqldb: table %q already exists", d.Name)
		}
		cols := make([]catalog.Column, len(d.Columns))
		for i, c := range d.Columns {
			col := catalog.Column{
				Name:     c.Name,
				TypeName: c.TypeName,
				Kind:     c.Kind,
				Size:     c.Size,
				NotNull:  c.NotNull,
				AutoInc:  c.AutoInc,
			}
			if c.Default != nil {
				v, err := evalConst(c.Default)
				if err != nil {
					return nil, fmt.Errorf("sqldb: default for column %q: %w", c.Name, err)
				}
				cv, err := sqlval.CoerceKind(v, c.Kind)
				if err != nil {
					return nil, fmt.Errorf("sqldb: default for column %q: %w", c.Name, err)
				}
				col.HasDefault = true
				col.Default = cv
			}
			cols[i] = col
		}
		meta, err := e.cat.CreateTable(d.Name, cols, d.PrimaryKey)
		if err != nil {
			return nil, err
		}
		for ui, unique := range d.Uniques {
			if _, err := e.cat.AddIndex(d.Name, fmt.Sprintf("%s_unique_%d", d.Name, ui), unique, true); err != nil {
				return nil, err
			}
		}
		tbl := storage.NewTable(meta)
		e.mu.Lock()
		e.tables[strings.ToLower(d.Name)] = tbl
		e.mu.Unlock()
		if e.disk != nil {
			if err := e.disk.onCreateTable(meta); err != nil {
				// Unwind: the table is not durable, so it must not exist.
				e.cat.DropTable(d.Name)
				e.mu.Lock()
				delete(e.tables, strings.ToLower(d.Name))
				e.mu.Unlock()
				return nil, err
			}
		}
		return &exec.Result{}, nil
	case *parser.CreateIndex:
		tbl, err := e.StorageTable(d.Table)
		if err != nil {
			return nil, err
		}
		idx, err := e.cat.AddIndex(d.Table, d.Name, d.Columns, d.Unique)
		if err != nil {
			if d.IfNotExists && strings.Contains(err.Error(), "already exists") {
				return &exec.Result{}, nil
			}
			return nil, err
		}
		tbl.AddIndex(idx)
		if e.disk != nil {
			if err := e.disk.onSchemaChange(d.Table); err != nil {
				return nil, err
			}
		}
		return &exec.Result{}, nil
	case *parser.DropTable:
		if !e.cat.HasTable(d.Name) {
			if d.IfExists {
				return &exec.Result{}, nil
			}
			return nil, fmt.Errorf("sqldb: table %q does not exist", d.Name)
		}
		if err := e.cat.DropTable(d.Name); err != nil {
			return nil, err
		}
		e.mu.Lock()
		delete(e.tables, strings.ToLower(d.Name))
		e.mu.Unlock()
		if e.disk != nil {
			if err := e.disk.onDropTable(d.Name); err != nil {
				return nil, err
			}
		}
		return &exec.Result{}, nil
	case *parser.TruncateTable:
		tbl, err := e.StorageTable(d.Name)
		if err != nil {
			return nil, err
		}
		tbl.Truncate()
		if e.disk != nil {
			if err := e.disk.onTruncate(d.Name); err != nil {
				return nil, err
			}
		}
		return &exec.Result{}, nil
	default:
		return nil, fmt.Errorf("sqldb: unsupported DDL %T", ast)
	}
}

// evalConst evaluates a constant expression (DEFAULT clauses).
func evalConst(e parser.Expr) (sqlval.Value, error) {
	switch x := e.(type) {
	case *parser.Literal:
		return x.Val, nil
	case *parser.Unary:
		if x.Op == "-" {
			v, err := evalConst(x.X)
			if err != nil {
				return sqlval.Value{}, err
			}
			return sqlval.Sub(sqlval.NewInt(0), v)
		}
	}
	return sqlval.Value{}, fmt.Errorf("non-constant expression")
}
