package sqldb

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"benchpress/internal/sqldb/catalog"
	"benchpress/internal/sqldb/storage"
	"benchpress/internal/sqldb/storage/heap"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/sqlval"
	"benchpress/internal/wal"
)

// Disk-resident mode. The engine keeps its in-memory multi-version row store
// as the working representation (reads never leave RAM), and the log is its
// only durable state. Each writing commit appends one commit record carrying
// the rows it leaves behind: table id, row id and encoded row, an empty image
// for a delete. DDL appends the table's catalog image the same way, under
// wal.SystemTxnID. Recovery is one scan of the log's clean prefix: every
// whole record is a winner and is applied in log order, so there is no
// analysis, redo or undo pass, and no loser — a commit whose record did not
// land whole never happened.
//
// Row ids are the storage layer's own. Recovery reinstalls every row at the
// id its records name (storage.Table.Reinstall), so a later record naming
// that id names the same row in every life of the log, however vacuum has
// recycled ids in between.
//
// Known bounds, documented rather than hidden: the log is never checkpointed
// or truncated past its clean prefix, so reopen time and file size grow with
// history; and wal.log is never fsynced, so a commit survives a process
// kill but not a power loss.

// diskCatalogTable is the reserved table id of catalog images: the row id is
// the described table's id and the image its JSON-serialized schema.
const diskCatalogTable uint32 = 0

type diskStore struct {
	eng     *Engine
	log     *wal.Log
	walFile *os.File // DataDir/wal.log; nil when the log goes to an injected sink

	mu          sync.Mutex
	tableIDs    map[string]uint32 // lowercased table name to its stable id
	nextTableID uint32
	recovery    *Recovery
}

// Recovery summarizes a disk-resident engine's restart.
type Recovery struct {
	// Winners holds the user transactions whose commit records survived,
	// in log order.
	Winners []uint64
	// MaxTxnID is the highest transaction id in the log. The engine
	// restarts its id source above it, so a transaction id names one
	// commit across every life of the log.
	MaxTxnID uint64
	// CleanWALLen is the byte length of the log's intact prefix; the file
	// is truncated to it before new records are appended.
	CleanWALLen int
}

// diskSchema is the serialized form of one table's schema: the image of a
// catalog row, from which recovery rebuilds the table before its rows.
type diskSchema struct {
	Name    string
	Columns []diskColumn
	PK      []string
	Indexes []diskIndex
}

type diskColumn struct {
	Name     string
	TypeName string
	Kind     uint8
	Size     int
	NotNull  bool
	AutoInc  bool
	// Default is EncodeRow of the single default value; nil means none.
	Default []byte
}

type diskIndex struct {
	Name    string
	Columns []string
	Unique  bool
}

// OpenDisk creates a disk-resident engine: it replays DataDir/wal.log into
// the in-memory tables and logs every later commit and DDL statement there.
// Without a DataDir it replays cfg.DiskWAL and logs to cfg.WALSink instead
// (the crash-torture harness's metered sink); without either it degrades to
// Open.
func OpenDisk(cfg Config) (*Engine, error) {
	if cfg.DataDir == "" && cfg.WALSink == nil {
		return Open(cfg), nil
	}
	e := &Engine{
		cfg:    cfg,
		cat:    catalog.New(),
		mgr:    txn.NewManager(cfg.Mode),
		tables: map[string]*storage.Table{},
		stmts:  map[string]*cachedStmt{},
	}
	ds := &diskStore{eng: e, tableIDs: map[string]uint32{}}
	if err := ds.open(cfg); err != nil {
		return nil, err
	}
	e.disk = ds
	e.log = ds.log
	e.mgr.AdvanceTxnID(ds.recovery.MaxTxnID)
	delay := cfg.CommitDelay
	e.mgr.OnCommit = func(t *txn.Txn) error {
		if err := ds.onCommit(t); err != nil {
			return err
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		return nil
	}
	if cfg.VacuumInterval > 0 {
		e.vacStop = make(chan struct{})
		e.vacWG.Add(1)
		go func() {
			defer e.vacWG.Done()
			e.vacuumLoop()
		}()
	}
	return e, nil
}

// DiskRecovery returns the restart summary of a disk-resident engine, or nil
// for a RAM engine. The crash-torture harness inspects it.
func (e *Engine) DiskRecovery() *Recovery {
	if e.disk == nil {
		return nil
	}
	return e.disk.recovery
}

// DiskPoolStats reports buffer pool counters and whether the engine is
// disk-resident. Disk engines keep no buffer pool any more, so the counters
// are always zero; the method stays for callers that still report them.
func (e *Engine) DiskPoolStats() (heap.PoolStats, bool) {
	return heap.PoolStats{}, e.disk != nil
}

func (ds *diskStore) open(cfg Config) error {
	image, path := cfg.DiskWAL, ""
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return err
		}
		path = filepath.Join(cfg.DataDir, "wal.log")
		var err error
		if image, err = os.ReadFile(path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	recs, cleanLen, err := wal.ScanRecords(image)
	if err != nil && !errors.Is(err, wal.ErrTorn) {
		return fmt.Errorf("sqldb: disk recovery: %w", err)
	}
	if err := ds.replay(recs); err != nil {
		return fmt.Errorf("sqldb: disk recovery: %w", err)
	}
	ds.recovery.CleanWALLen = cleanLen

	// Reopen the log where the surviving prefix left off. The file is
	// truncated to the clean prefix so the next replay never hits mid-file
	// torn garbage; an injected sink receives only new bytes, and its owner
	// concatenates them with the prefix itself.
	sink := cfg.WALSink
	if path != "" {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		if err := f.Truncate(int64(cleanLen)); err != nil {
			_ = f.Close()
			return err
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			_ = f.Close()
			return err
		}
		ds.walFile = f
		sink = f
	}
	var lastSeq uint64
	if len(recs) > 0 {
		lastSeq = recs[len(recs)-1].Seq
	}
	ds.log = wal.New(wal.Options{
		Policy:        cfg.WALPolicy,
		GroupInterval: cfg.GroupCommitInterval,
		W:             sink,
		StartSeq:      lastSeq,
	})
	return nil
}

// tableImage is one table as a log prefix leaves it: its catalog image and
// its live rows by id.
type tableImage struct {
	schema []byte
	rows   map[storage.RowID][]byte
}

// replay folds the log's records, in order, into the tables they leave
// behind, then installs each table and its rows at their logged ids.
func (ds *diskStore) replay(recs []wal.Record) error {
	res := &Recovery{}
	tables := map[uint32]*tableImage{}
	ds.nextTableID = diskCatalogTable + 1
	for _, r := range recs {
		c, err := wal.DecodeCommit(r.Payload)
		if err != nil {
			return fmt.Errorf("log record %d: %w", r.Seq, err)
		}
		if c.TxnID != wal.SystemTxnID {
			res.Winners = append(res.Winners, c.TxnID)
		}
		res.MaxTxnID = max(res.MaxTxnID, c.TxnID)
		for _, row := range c.Rows {
			if row.Table != diskCatalogTable {
				ti := tables[row.Table]
				switch {
				case ti == nil:
					return fmt.Errorf("log record %d writes row %d of unknown table %d", r.Seq, row.Row, row.Table)
				case row.Image == nil:
					delete(ti.rows, row.Row)
				default:
					ti.rows[row.Row] = row.Image
				}
				continue
			}
			if row.Row <= int64(diskCatalogTable) || row.Row >= math.MaxUint32 {
				return fmt.Errorf("log record %d names table id %d", r.Seq, row.Row)
			}
			tid := uint32(row.Row)
			ds.nextTableID = max(ds.nextTableID, tid+1)
			switch ti := tables[tid]; {
			case row.Image == nil: // DROP TABLE, or the first half of TRUNCATE
				delete(tables, tid)
			case ti != nil: // a schema change keeps the rows
				ti.schema = row.Image
			default:
				tables[tid] = &tableImage{schema: row.Image, rows: map[storage.RowID][]byte{}}
			}
		}
	}
	for _, tid := range sortedKeys(tables) {
		ti := tables[tid]
		tbl, err := ds.installSchema(tid, ti.schema)
		if err != nil {
			return err
		}
		ids := sortedKeys(ti.rows)
		rows := make([][]sqlval.Value, len(ids))
		for i, id := range ids {
			if rows[i], err = heap.DecodeRow(ti.rows[id]); err != nil {
				return fmt.Errorf("table %q row %d: %w", tbl.Meta.Name, id, err)
			}
		}
		if err := tbl.Reinstall(ids, rows); err != nil {
			return err
		}
	}
	ds.recovery = res
	return nil
}

// sortedKeys returns m's keys in ascending order, so recovery installs
// tables and rows deterministically.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// installSchema recreates one table (catalog entry, storage table, indexes)
// from its catalog image.
func (ds *diskStore) installSchema(tid uint32, image []byte) (*storage.Table, error) {
	var sc diskSchema
	if err := json.Unmarshal(image, &sc); err != nil {
		return nil, fmt.Errorf("catalog image of table %d: %w", tid, err)
	}
	cols := make([]catalog.Column, len(sc.Columns))
	for i, c := range sc.Columns {
		col := catalog.Column{
			Name:     c.Name,
			TypeName: c.TypeName,
			Kind:     sqlval.Kind(c.Kind),
			Size:     c.Size,
			NotNull:  c.NotNull,
			AutoInc:  c.AutoInc,
		}
		if c.Default != nil {
			vals, err := heap.DecodeRow(c.Default)
			if err != nil || len(vals) != 1 {
				return nil, fmt.Errorf("table %q column %q: bad default encoding", sc.Name, c.Name)
			}
			col.HasDefault = true
			col.Default = vals[0]
		}
		cols[i] = col
	}
	meta, err := ds.eng.cat.CreateTable(sc.Name, cols, sc.PK)
	if err != nil {
		return nil, err
	}
	for _, ix := range sc.Indexes {
		if _, err := ds.eng.cat.AddIndex(sc.Name, ix.Name, ix.Columns, ix.Unique); err != nil {
			return nil, err
		}
	}
	tbl := storage.NewTable(meta)
	ds.eng.tables[strings.ToLower(sc.Name)] = tbl
	ds.tableIDs[strings.ToLower(sc.Name)] = tid
	return tbl, nil
}

// onCommit is the disk engine's durability hook: it logs one commit record
// carrying every row the transaction leaves behind and awaits its verdict.
// The record is awaited under ds.mu, one commit at a time, so records land
// in commit order. Taking the wait out of the lock would let group commit
// group (ROADMAP, disk step 1), but the tps gain would grow the live heap
// past its benchmark bound, so it waits until the heap grows less per
// transaction. A failed append fails this commit and, the log being
// poisoned, every later one.
func (ds *diskStore) onCommit(t *txn.Txn) error {
	writes := t.WriteSet()
	if len(writes) == 0 {
		return nil // claims-only transaction: nothing durable changes
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	rows := make([]wal.RowImage, len(writes))
	for i, w := range writes {
		tid, ok := ds.tableIDs[strings.ToLower(w.Table)]
		if !ok {
			return fmt.Errorf("sqldb: commit touches unknown disk table %q", w.Table)
		}
		rows[i] = wal.RowImage{Table: tid, Row: w.RowID}
		if w.Kind != txn.WriteDelete {
			rows[i].Image = heap.EncodeRow(w.Data)
		}
	}
	return ds.log.AppendRecord(wal.EncodeCommitRows(t.ID(), rows))
}

// logCatalog logs catalog images as one system record and awaits it.
// Callers hold ds.mu.
func (ds *diskStore) logCatalog(rows ...wal.RowImage) error {
	return ds.log.AppendRecord(wal.EncodeCommitRows(wal.SystemTxnID, rows))
}

// catalogImage encodes the named table's current schema as the catalog row
// of table tid.
func (ds *diskStore) catalogImage(tid uint32, tableName string) (wal.RowImage, error) {
	meta, err := ds.eng.cat.Table(tableName)
	if err != nil {
		return wal.RowImage{}, err
	}
	return catalogRow(tid, meta)
}

// lookup returns the stable id of a table. Callers hold ds.mu.
func (ds *diskStore) lookup(tableName string) (uint32, bool) {
	tid, ok := ds.tableIDs[strings.ToLower(tableName)]
	return tid, ok
}

// onCreateTable assigns the new table a stable id and logs its catalog
// image.
func (ds *diskStore) onCreateTable(meta *catalog.Table) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	tid := ds.nextTableID
	img, err := catalogRow(tid, meta)
	if err != nil {
		return err
	}
	if err := ds.logCatalog(img); err != nil {
		return err
	}
	ds.nextTableID++
	ds.tableIDs[strings.ToLower(meta.Name)] = tid
	return nil
}

// onSchemaChange logs a table's new catalog image after DDL such as CREATE
// INDEX; recovery keeps the table's rows and rebuilds its indexes.
func (ds *diskStore) onSchemaChange(tableName string) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	tid, ok := ds.lookup(tableName)
	if !ok {
		return fmt.Errorf("sqldb: schema change on unknown disk table %q", tableName)
	}
	img, err := ds.catalogImage(tid, tableName)
	if err != nil {
		return err
	}
	return ds.logCatalog(img)
}

// onDropTable logs the deletion of the table's catalog row, which drops its
// rows with it.
func (ds *diskStore) onDropTable(name string) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	tid, ok := ds.lookup(name)
	if !ok {
		return nil
	}
	if err := ds.logCatalog(wal.RowImage{Table: diskCatalogTable, Row: int64(tid)}); err != nil {
		return err
	}
	delete(ds.tableIDs, strings.ToLower(name))
	return nil
}

// onTruncate logs a TRUNCATE (or the game's reset) as the table's catalog
// row deleted and rewritten in one record: recovery drops the rows and
// recreates the table empty, so a restart does not resurrect them.
func (ds *diskStore) onTruncate(name string) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	tid, ok := ds.lookup(name)
	if !ok {
		return nil
	}
	img, err := ds.catalogImage(tid, name)
	if err != nil {
		return err
	}
	return ds.logCatalog(wal.RowImage{Table: diskCatalogTable, Row: int64(tid)}, img)
}

// close releases the log file. The WAL is already closed by Engine.Close,
// so every acknowledged record has been written.
func (ds *diskStore) close() {
	if ds.walFile != nil {
		_ = ds.walFile.Close()
	}
}

// catalogRow serializes a table's schema as the catalog row of table tid.
func catalogRow(tid uint32, meta *catalog.Table) (wal.RowImage, error) {
	sc := diskSchema{Name: meta.Name}
	for _, c := range meta.Columns {
		dc := diskColumn{
			Name:     c.Name,
			TypeName: c.TypeName,
			Kind:     uint8(c.Kind),
			Size:     c.Size,
			NotNull:  c.NotNull,
			AutoInc:  c.AutoInc,
		}
		if c.HasDefault {
			dc.Default = heap.EncodeRow([]sqlval.Value{c.Default})
		}
		sc.Columns = append(sc.Columns, dc)
	}
	for _, pi := range meta.PKCols {
		sc.PK = append(sc.PK, meta.Columns[pi].Name)
	}
	for _, idx := range meta.Indexes {
		if idx.Primary {
			continue
		}
		di := diskIndex{Name: idx.Name, Unique: idx.Unique}
		for _, ci := range idx.Columns {
			di.Columns = append(di.Columns, meta.Columns[ci].Name)
		}
		sc.Indexes = append(sc.Indexes, di)
	}
	image, err := json.Marshal(sc)
	return wal.RowImage{Table: diskCatalogTable, Row: int64(tid), Image: image}, err
}
