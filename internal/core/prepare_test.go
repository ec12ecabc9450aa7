package core

import (
	"testing"

	"benchpress/internal/dbdriver"
)

// resumingBench wraps stubBench with a core.Resumer implementation so the
// test can observe when Prepare re-derives allocator state from a recovered
// dataset.
type resumingBench struct {
	*stubBench
	resumed int
}

func (r *resumingBench) Resume(db *dbdriver.DB) error {
	r.resumed++
	return nil
}

// TestPrepareReopensRecoveredDataDir: Prepare on an engine that recovered a
// disk image must keep the existing schema and dataset instead of failing on
// CREATE TABLE (or silently reloading over live data), and after a
// truncate it must reload into the recovered schema without re-creating it.
func TestPrepareReopensRecoveredDataDir(t *testing.T) {
	dir := t.TempDir()
	p, err := dbdriver.Lookup("golock")
	if err != nil {
		t.Fatal(err)
	}
	p.Name = "golock-preparetest"
	p.DataDir = dir
	dbdriver.Register(p)

	db, err := dbdriver.Open(p.Name)
	if err != nil {
		t.Fatal(err)
	}
	b := &resumingBench{stubBench: &stubBench{scale: 1}}
	if err := Prepare(b, db, 1); err != nil {
		t.Fatalf("Prepare on fresh data dir: %v", err)
	}
	if b.resumed != 0 {
		t.Fatalf("Resume called %d times on fresh Prepare, want 0", b.resumed)
	}
	// Mark a row so a reopened dataset is distinguishable from a reload.
	conn := db.Connect()
	if _, err := conn.Exec("UPDATE counters SET v = 7 WHERE k = ?", 3); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	db.Close()

	db2, err := dbdriver.Open(p.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := Prepare(b, db2, 1); err != nil {
		t.Fatalf("Prepare on recovered data dir: %v", err)
	}
	if b.resumed != 1 {
		t.Fatalf("Resume called %d times on recovered Prepare, want 1", b.resumed)
	}
	conn2 := db2.Connect()
	defer conn2.Close()
	row, err := conn2.QueryRow("SELECT v FROM counters WHERE k = ?", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := row[0].String(); got != "7" {
		t.Fatalf("recovered row v = %s, want 7 (dataset was reloaded over recovered data)", got)
	}

	// Truncated-but-recovered schema: Prepare reloads the dataset without
	// attempting CREATE TABLE.
	if err := db2.Engine().TruncateAll(); err != nil {
		t.Fatal(err)
	}
	if err := Prepare(b, db2, 1); err != nil {
		t.Fatalf("Prepare after truncate: %v", err)
	}
	if b.resumed != 1 {
		t.Fatalf("Resume called %d times after truncate+reload, want 1 (reload re-derives state itself)", b.resumed)
	}
	if got := db2.Engine().RowCount(); got != 10 {
		t.Fatalf("rows after truncate+Prepare = %d, want 10", got)
	}
	row, err = conn2.QueryRow("SELECT v FROM counters WHERE k = ?", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := row[0].String(); got != "0" {
		t.Fatalf("reloaded row v = %s, want 0", got)
	}
}
