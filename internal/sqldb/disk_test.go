package sqldb

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"benchpress/internal/sqldb/storage/heap"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/wal"
)

func openDiskEngine(t *testing.T, dir string, poolPages int) *Engine {
	t.Helper()
	e, err := OpenDisk(Config{
		Name:            "golock-disk",
		Mode:            txn.Locking,
		WALPolicy:       wal.SyncNone,
		DataDir:         dir,
		BufferPoolPages: poolPages,
	})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	return e
}

func setupDiskPeople(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE people (
		id INT NOT NULL,
		name VARCHAR(32) NOT NULL,
		balance DOUBLE DEFAULT 0,
		PRIMARY KEY (id)
	)`)
	for i := 1; i <= 5; i++ {
		mustExec(t, s, "INSERT INTO people (id, name, balance) VALUES (?, ?, ?)",
			i, fmt.Sprintf("p%d", i), float64(i)*10)
	}
}

// TestDiskEngineRestart: rows, updates, and deletes committed before a clean
// close all survive a reopen from the heap file and WAL.
func TestDiskEngineRestart(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir, 8)
	s := e.Session()
	setupDiskPeople(t, s)
	mustExec(t, s, "UPDATE people SET name = ? WHERE id = ?", "renamed-to-something-longer", 2)
	mustExec(t, s, "DELETE FROM people WHERE id = ?", 4)
	e.Close()

	e2 := openDiskEngine(t, dir, 8)
	defer e2.Close()
	s2 := e2.Session()
	res, err := s2.Query("SELECT id, name FROM people ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows after restart, want 4", len(res.Rows))
	}
	byID := map[int64]string{}
	for _, r := range res.Rows {
		byID[r[0].Int()] = r[1].Str()
	}
	if byID[2] != "renamed-to-something-longer" {
		t.Fatalf("id 2 name = %q", byID[2])
	}
	if _, ok := byID[4]; ok {
		t.Fatal("deleted row 4 resurrected")
	}
	if rec := e2.DiskRecovery(); rec == nil || len(rec.Winners) == 0 {
		t.Fatalf("recovery result: %+v", rec)
	}
	// New writes on the recovered engine keep working and survive another
	// restart (the log continues its sequence).
	mustExec(t, s2, "INSERT INTO people (id, name, balance) VALUES (?, ?, ?)", 9, "late", 90.0)
	e2.Close()

	e3 := openDiskEngine(t, dir, 8)
	defer e3.Close()
	row, err := e3.Session().QueryRow("SELECT name FROM people WHERE id = ?", 9)
	if err != nil || row == nil {
		t.Fatalf("row 9 after second restart: %v %v", row, err)
	}
	if row[0].Str() != "late" {
		t.Fatalf("row 9 name = %q", row[0].Str())
	}
}

// TestDiskEngineCrashWithoutClose: an abandoned engine (no Close, pool never
// flushed) recovers entirely from the WAL.
func TestDiskEngineCrashWithoutClose(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir, 8)
	s := e.Session()
	setupDiskPeople(t, s)
	// No Close: the heap file may hold nothing at all; the log holds it all.

	e2 := openDiskEngine(t, dir, 8)
	defer e2.Close()
	res, err := e2.Session().Query("SELECT id FROM people ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows recovered, want 5", len(res.Rows))
	}
	if rec := e2.DiskRecovery(); rec == nil || rec.Redone == 0 {
		t.Fatalf("expected redo work, got %+v", rec)
	}
}

// TestDiskEngineLargerThanPool: a dataset spanning more pages than the buffer
// pool's budget forces evictions on the write path and still recovers whole.
func TestDiskEngineLargerThanPool(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir, 2) // 2 frames = 8 KiB of pool
	s := e.Session()
	mustExec(t, s, `CREATE TABLE blobs (
		id INT NOT NULL,
		payload VARCHAR(512) NOT NULL,
		PRIMARY KEY (id)
	)`)
	payload := make([]byte, 400)
	for i := range payload {
		payload[i] = 'x'
	}
	const rows = 64 // ~26 KiB of records over ~8 pages, 4x the pool
	for i := 0; i < rows; i++ {
		mustExec(t, s, "INSERT INTO blobs (id, payload) VALUES (?, ?)", i, string(payload))
	}
	st, ok := e.DiskPoolStats()
	if !ok {
		t.Fatal("no pool stats on a disk engine")
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions with %d rows over a 2-frame pool: %+v", rows, st)
	}
	e.Close()

	e2 := openDiskEngine(t, dir, 2)
	defer e2.Close()
	res, err := e2.Session().Query("SELECT id FROM blobs")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != rows {
		t.Fatalf("%d rows recovered, want %d", len(res.Rows), rows)
	}
}

// TestDiskEngineSecondaryIndexSurvives: CREATE INDEX is a logged catalog
// change; after restart the index exists and serves lookups.
func TestDiskEngineSecondaryIndexSurvives(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir, 8)
	s := e.Session()
	setupDiskPeople(t, s)
	mustExec(t, s, "CREATE INDEX idx_people_name ON people (name)")
	e.Close()

	e2 := openDiskEngine(t, dir, 8)
	defer e2.Close()
	meta, err := e2.Catalog().Table("people")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, idx := range meta.Indexes {
		if idx.Name == "idx_people_name" {
			found = true
		}
	}
	if !found {
		t.Fatalf("index lost across restart; have %+v", meta.Indexes)
	}
	row, err := e2.Session().QueryRow("SELECT id FROM people WHERE name = ?", "p3")
	if err != nil || row == nil {
		t.Fatalf("indexed lookup: %v %v", row, err)
	}
	if row[0].Int() != 3 {
		t.Fatalf("lookup returned id %d", row[0].Int())
	}
}

// TestDiskEngineDropAndTruncate: dropped and truncated tables stay gone after
// a restart (their heap records are delete-logged).
func TestDiskEngineDropAndTruncate(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir, 8)
	s := e.Session()
	setupDiskPeople(t, s)
	mustExec(t, s, `CREATE TABLE scratch (id INT NOT NULL, PRIMARY KEY (id))`)
	mustExec(t, s, "INSERT INTO scratch (id) VALUES (?)", 1)
	mustExec(t, s, "DROP TABLE scratch")
	mustExec(t, s, "TRUNCATE TABLE people")
	e.Close()

	e2 := openDiskEngine(t, dir, 8)
	defer e2.Close()
	if e2.Catalog().HasTable("scratch") {
		t.Fatal("dropped table resurrected")
	}
	res, err := e2.Session().Query("SELECT id FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("truncated table recovered %d rows", len(res.Rows))
	}
}

// TestDiskEngineRollbackNotLogged: aborted transactions leave no trace on
// disk.
func TestDiskEngineRollbackNotLogged(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir, 8)
	s := e.Session()
	setupDiskPeople(t, s)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO people (id, name, balance) VALUES (?, ?, ?)", 100, "ghost", 0.0)
	mustExec(t, s, "ROLLBACK")
	e.Close()

	e2 := openDiskEngine(t, dir, 8)
	defer e2.Close()
	row, err := e2.Session().QueryRow("SELECT id FROM people WHERE id = ?", 100)
	if err != nil {
		t.Fatal(err)
	}
	if row != nil {
		t.Fatal("rolled-back insert survived restart")
	}
}

// TestDiskEngineGroupCommitPolicy: the disk path also works under SyncGroup,
// where update records ride the commit record's group flush.
func TestDiskEngineGroupCommitPolicy(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDisk(Config{
		Name:      "golock-disk",
		Mode:      txn.Locking,
		WALPolicy: wal.SyncGroup,
		DataDir:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Session()
	setupDiskPeople(t, s)
	e.Close()

	e2 := openDiskEngine(t, dir, 8)
	defer e2.Close()
	res, err := e2.Session().Query("SELECT id FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(res.Rows))
	}
}

// TestDiskEngineFailedCommitUndoesPlanning: a commit that fails after its
// inserts, updates and deletes were planned (here: a row too big for a page)
// leaves the slot allocator and the row-to-slot map as they were, so later
// commits of the same rows succeed and a restart sees exactly memory.
func TestDiskEngineFailedCommitUndoesPlanning(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir, 8)
	s := e.Session()
	mustExec(t, s, `CREATE TABLE docs (id INT NOT NULL, body VARCHAR(8000), PRIMARY KEY (id))`)
	for i := 1; i <= 5; i++ {
		mustExec(t, s, "INSERT INTO docs (id, body) VALUES (?, ?)", i, fmt.Sprintf("doc %d", i))
	}
	ds := e.disk
	ds.mu.Lock()
	alloc := slices.Clone(ds.alloc)
	nextPage := ds.nextPageID
	rids := maps.Clone(ds.byName["docs"].rids)
	ds.mu.Unlock()

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "DELETE FROM docs WHERE id = ?", 3)
	mustExec(t, s, "UPDATE docs SET body = ? WHERE id = ?", strings.Repeat("u", 3000), 2)
	mustExec(t, s, "INSERT INTO docs (id, body) VALUES (?, ?)", 6, "six")
	mustExec(t, s, "INSERT INTO docs (id, body) VALUES (?, ?)", 7, strings.Repeat("x", heap.PageCapacity))
	if _, err := s.Exec("COMMIT"); err == nil || !strings.Contains(err.Error(), "exceeds page capacity") {
		t.Fatalf("COMMIT of an oversized row: %v, want a page-capacity error", err)
	}

	ds.mu.Lock()
	if !slices.Equal(ds.alloc, alloc) || ds.nextPageID != nextPage || len(ds.allocIdx) != len(alloc) {
		t.Errorf("allocator changed by a failed commit:\n got %+v (next page %d)\nwant %+v (next page %d)", ds.alloc, ds.nextPageID, alloc, nextPage)
	}
	if got := ds.byName["docs"].rids; !maps.Equal(got, rids) {
		t.Errorf("row map changed by a failed commit: got %v, want %v", got, rids)
	}
	ds.mu.Unlock()

	mustExec(t, s, "DELETE FROM docs WHERE id = ?", 3)
	mustExec(t, s, "UPDATE docs SET body = ? WHERE id = ?", "two", 2)
	mustExec(t, s, "INSERT INTO docs (id, body) VALUES (?, ?)", 6, "six")
	e.Close()

	e2 := openDiskEngine(t, dir, 8)
	defer e2.Close()
	res, err := e2.Session().Query("SELECT id, body FROM docs ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Rows {
		got = append(got, fmt.Sprintf("%d=%s", r[0].Int(), r[1].Str()))
	}
	want := []string{"1=doc 1", "2=two", "4=doc 4", "5=doc 5", "6=six"}
	if !slices.Equal(got, want) {
		t.Fatalf("after restart: %v, want %v", got, want)
	}
}
