package sqldb

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"benchpress/internal/sqldb/storage"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/wal"
)

func openDiskEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := OpenDisk(Config{
		Name:      "golock-disk",
		Mode:      txn.Locking,
		WALPolicy: wal.SyncNone,
		DataDir:   dir,
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
// close all survive a reopen from the log.
func TestDiskEngineRestart(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir)
	s := e.Session()
	setupDiskPeople(t, s)
	mustExec(t, s, "UPDATE people SET name = ? WHERE id = ?", "renamed-to-something-longer", 2)
	mustExec(t, s, "DELETE FROM people WHERE id = ?", 4)
	e.Close()

	e2 := openDiskEngine(t, dir)
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

	e3 := openDiskEngine(t, dir)
	defer e3.Close()
	row, err := e3.Session().QueryRow("SELECT name FROM people WHERE id = ?", 9)
	if err != nil || row == nil {
		t.Fatalf("row 9 after second restart: %v %v", row, err)
	}
	if row[0].Str() != "late" {
		t.Fatalf("row 9 name = %q", row[0].Str())
	}
}

// TestDiskEngineCrashWithoutClose: an abandoned engine (no Close) recovers
// entirely from the log, one winner per committed insert.
func TestDiskEngineCrashWithoutClose(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir)
	s := e.Session()
	setupDiskPeople(t, s)

	e2 := openDiskEngine(t, dir)
	defer e2.Close()
	res, err := e2.Session().Query("SELECT id FROM people ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows recovered, want 5", len(res.Rows))
	}
	if rec := e2.DiskRecovery(); rec == nil || len(rec.Winners) != 5 {
		t.Fatalf("expected 5 winners, got %+v", rec)
	}
}

// TestDiskEngineSecondaryIndexSurvives: CREATE INDEX is a logged catalog
// change; after restart the index exists and serves lookups.
func TestDiskEngineSecondaryIndexSurvives(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir)
	s := e.Session()
	setupDiskPeople(t, s)
	mustExec(t, s, "CREATE INDEX idx_people_name ON people (name)")
	e.Close()

	e2 := openDiskEngine(t, dir)
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
// a restart (their catalog rows are delete-logged).
func TestDiskEngineDropAndTruncate(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir)
	s := e.Session()
	setupDiskPeople(t, s)
	mustExec(t, s, `CREATE TABLE scratch (id INT NOT NULL, PRIMARY KEY (id))`)
	mustExec(t, s, "INSERT INTO scratch (id) VALUES (?)", 1)
	mustExec(t, s, "DROP TABLE scratch")
	mustExec(t, s, "TRUNCATE TABLE people")
	e.Close()

	e2 := openDiskEngine(t, dir)
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
	e := openDiskEngine(t, dir)
	s := e.Session()
	setupDiskPeople(t, s)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO people (id, name, balance) VALUES (?, ?, ?)", 100, "ghost", 0.0)
	mustExec(t, s, "ROLLBACK")
	e.Close()

	e2 := openDiskEngine(t, dir)
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
// where each commit record waits for its group flush.
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

	e2 := openDiskEngine(t, dir)
	defer e2.Close()
	res, err := e2.Session().Query("SELECT id FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(res.Rows))
	}
}

// failingSink is a log sink that fails every write while dead is set.
type failingSink struct {
	dead bool
	buf  bytes.Buffer
}

var errSinkDead = errors.New("sink: device gone")

func (w *failingSink) Write(p []byte) (int, error) {
	if w.dead {
		return 0, errSinkDead
	}
	return w.buf.Write(p)
}

// TestDiskEngineFailedCommitInvisible: a commit whose record the log sink
// refuses leaves none of its rows visible, every later commit fails with the
// log's sticky error even once the sink works again, and the log replays to
// the rows committed before the failure.
func TestDiskEngineFailedCommitInvisible(t *testing.T) {
	sink := &failingSink{}
	cfg := Config{Name: "golock-disk", Mode: txn.Locking, WALPolicy: wal.SyncNone, WALSink: sink}
	e, err := OpenDisk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.Session()
	setupDiskPeople(t, s)
	want := []string{"1=p1", "2=p2", "3=p3", "4=p4", "5=p5"}
	people := func(e *Engine) []string {
		t.Helper()
		res, err := e.Session().Query("SELECT id, name FROM people ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range res.Rows {
			got = append(got, fmt.Sprintf("%d=%s", r[0].Int(), r[1].Str()))
		}
		return got
	}

	sink.dead = true
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "DELETE FROM people WHERE id = ?", 3)
	mustExec(t, s, "UPDATE people SET name = ? WHERE id = ?", "two", 2)
	mustExec(t, s, "INSERT INTO people (id, name) VALUES (?, ?)", 6, "six")
	if _, err := s.Exec("COMMIT"); !errors.Is(err, errSinkDead) {
		t.Fatalf("COMMIT with a dead sink: %v, want an error wrapping %v", err, errSinkDead)
	}
	if got := people(e); !slices.Equal(got, want) {
		t.Fatalf("after the failed commit: %v, want %v", got, want)
	}

	sink.dead = false // the device is back, but the log stays failed
	if _, err := s.Exec("INSERT INTO people (id, name) VALUES (?, ?)", 7, "seven"); !errors.Is(err, errSinkDead) {
		t.Fatalf("autocommit after the failure: %v, want an error wrapping %v", err, errSinkDead)
	}
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE people SET name = ? WHERE id = ?", "one", 1)
	if _, err := s.Exec("COMMIT"); !errors.Is(err, errSinkDead) {
		t.Fatalf("explicit commit after the failure: %v, want an error wrapping %v", err, errSinkDead)
	}
	if got := people(e); !slices.Equal(got, want) {
		t.Fatalf("after the later commits: %v, want %v", got, want)
	}

	cfg.DiskWAL, cfg.WALSink = sink.buf.Bytes(), &bytes.Buffer{}
	e2, err := OpenDisk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := people(e2); !slices.Equal(got, want) {
		t.Fatalf("after replay: %v, want %v", got, want)
	}
}

// rowIDs maps each docs row's key to its storage row id.
func rowIDs(t *testing.T, e *Engine) map[int64]storage.RowID {
	t.Helper()
	tbl, err := e.StorageTable("docs")
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int64]storage.RowID{}
	tbl.ScanAll(func(id storage.RowID, r *storage.Row) bool {
		ids[r.Latest().Data[0].Int()] = id
		return true
	})
	return ids
}

// TestDiskEngineRowIdentityAcrossRestarts: a logged row id names the same
// row in every life of the log. Vacuum recycles the ids of deleted rows
// into new inserts; after a reopen every row keeps its id, and updates and
// deletes of rows from before the restart, logged under those ids, replay
// onto the right rows in the next life.
func TestDiskEngineRowIdentityAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	model := map[int64]string{}
	put := func(s *Session, sql string, id int64, body string) {
		t.Helper()
		mustExec(t, s, sql, body, id)
		model[id] = body
	}
	const insert = "INSERT INTO docs (body, id) VALUES (?, ?)"
	const update = "UPDATE docs SET body = ? WHERE id = ?"

	e := openDiskEngine(t, dir)
	s := e.Session()
	mustExec(t, s, `CREATE TABLE docs (id INT NOT NULL, body VARCHAR(64), PRIMARY KEY (id))`)
	for id := int64(1); id <= 40; id++ {
		put(s, insert, id, fmt.Sprintf("first %d", id))
	}
	for id := int64(2); id <= 40; id += 2 {
		mustExec(t, s, "DELETE FROM docs WHERE id = ?", id)
		delete(model, id)
	}
	// Retire the deleted rows, advance the clock past the retirement, and
	// recycle their slots.
	e.Vacuum()
	put(s, update, 1, "bump")
	e.Vacuum()
	var oldMax storage.RowID
	for _, id := range rowIDs(t, e) {
		oldMax = max(oldMax, id)
	}
	for id := int64(41); id <= 60; id++ {
		put(s, insert, id, fmt.Sprintf("recycled %d", id))
	}
	before := rowIDs(t, e)
	recycled := 0
	for id := int64(41); id <= 60; id++ {
		if before[id] < oldMax {
			recycled++
		}
	}
	if recycled == 0 {
		t.Fatalf("no insert reused a vacuumed row id (ids %v, old max %d)", before, oldMax)
	}
	e.Close()

	e2 := openDiskEngine(t, dir)
	if got := rowIDs(t, e2); !maps.Equal(got, before) {
		t.Fatalf("row ids changed across the restart:\n got %v\nwant %v", got, before)
	}
	s2 := e2.Session()
	for id := int64(1); id <= 60; id += 3 {
		if _, ok := model[id]; ok {
			put(s2, update, id, fmt.Sprintf("second life %d", id))
		}
	}
	for id := int64(41); id <= 60; id += 4 {
		mustExec(t, s2, "DELETE FROM docs WHERE id = ?", id)
		delete(model, id)
	}
	put(s2, insert, 61, "late")
	e2.Close()

	e3 := openDiskEngine(t, dir)
	defer e3.Close()
	res, err := e3.Session().Query("SELECT id, body FROM docs")
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]string{}
	for _, r := range res.Rows {
		got[r[0].Int()] = r[1].Str()
	}
	if !maps.Equal(got, model) {
		t.Fatalf("after two restarts:\n got %v\nwant %v", got, model)
	}
}
