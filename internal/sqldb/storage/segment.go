package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"benchpress/internal/sqlval"
)

// Row slots are striped across NumSegments segments. A RowID encodes its
// segment in the low segShift bits (after subtracting the 1-based offset), so
// decoding an id never consults shared state. Within a segment, slots live in
// fixed-size pages reached through an atomically published page directory:
// point lookups are latch-free (directory load + slot load), while slot
// allocation and release serialize on the segment's private mutex. New rows
// pick segments round-robin, which keeps segments balanced and — a pleasant
// accident of the encoding — hands out ids 1,2,3,… for purely sequential
// insert streams, matching the previous allocator.
const (
	segShift    = 5
	NumSegments = 1 << segShift
	segMask     = NumSegments - 1
	pageShift   = 8
	pageSize    = 1 << pageShift
	pageMask    = pageSize - 1
)

// page is one fixed block of row slots. Slots are atomic so readers need no
// latch; nil means free.
type page [pageSize]atomic.Pointer[Row]

// segment is one stripe of the row store. The trailing pad keeps the hot
// mutable fields of neighboring segments in the embedding array off each
// other's cache lines.
type segment struct {
	mu    sync.Mutex
	dir   atomic.Pointer[[]*page] // published directory; grown under mu
	used  int64                   // high-water local slot count, guarded by mu
	free  []int64                 // reclaimed local slot indexes, guarded by mu
	count atomic.Int64            // occupied (non-nil) slots
	_     [64]byte
}

// initSegments publishes an empty directory in every segment so lookups
// never see a nil pointer.
func (t *Table) initSegments() {
	for i := range t.segs {
		empty := make([]*page, 0)
		t.segs[i].dir.Store(&empty)
	}
}

// resetSegments empties every segment (Truncate).
func (t *Table) resetSegments() {
	for i := range t.segs {
		seg := &t.segs[i]
		seg.mu.Lock()
		empty := make([]*page, 0)
		seg.dir.Store(&empty)
		seg.used = 0
		seg.free = nil
		seg.count.Store(0)
		seg.mu.Unlock()
	}
}

// rowAddr decodes a RowID into its segment index and local slot index.
func rowAddr(id RowID) (seg, local int64) {
	id--
	return id & segMask, id >> segShift
}

// makeRowID encodes a segment and local slot index into a 1-based RowID.
func makeRowID(seg, local int64) RowID {
	return (local<<segShift | seg) + 1
}

// installRow places a row into a fresh or recycled slot and returns its id.
// Slot recycling is safe under the package's read discipline: any reader
// holding a stale index entry for a recycled id re-validates the fetched
// version against both visibility and the entry key, so it filters the new
// occupant out.
func (t *Table) installRow(row *Row) RowID {
	g := int64(t.nextSeg.Add(1)-1) & segMask
	seg := &t.segs[g]
	seg.mu.Lock()
	var local int64
	if n := len(seg.free); n > 0 {
		local = seg.free[n-1]
		seg.free = seg.free[:n-1]
	} else {
		local = seg.used
		seg.used++
		dir := *seg.dir.Load()
		if int(local>>pageShift) >= len(dir) {
			grown := make([]*page, len(dir)+1)
			copy(grown, dir)
			grown[len(dir)] = new(page)
			seg.dir.Store(&grown)
		}
	}
	dir := *seg.dir.Load()
	dir[local>>pageShift][local&pageMask].Store(row)
	seg.count.Add(1)
	seg.mu.Unlock()
	return makeRowID(g, local)
}

// Reinstall loads recovered rows into an empty table at the row ids their
// log names, each as one version visible to every transaction, indexes
// them, and raises the auto-increment watermark past every recovered value.
// It is recovery's only way in: a logged row id must name the same row in
// every life of the log, so ids are kept, never reassigned, and every slot
// below a segment's high-water mark that no row claims goes on that
// segment's free list. ids must be ascending; the table must not yet be
// shared.
func (t *Table) Reinstall(ids []RowID, rows [][]sqlval.Value) error {
	for i, id := range ids {
		if id <= 0 || (i > 0 && id <= ids[i-1]) {
			return fmt.Errorf("storage: %q: recovered row id %d out of order", t.Meta.Name, id)
		}
		if len(rows[i]) != len(t.Meta.Columns) {
			return fmt.Errorf("storage: %q: recovered row %d has %d columns, want %d", t.Meta.Name, id, len(rows[i]), len(t.Meta.Columns))
		}
		g, local := rowAddr(id)
		seg := &t.segs[g]
		dir := *seg.dir.Load()
		if pi := int(local >> pageShift); pi >= len(dir) {
			grown := make([]*page, pi+1)
			copy(grown, dir)
			for j := len(dir); j <= pi; j++ {
				grown[j] = new(page)
			}
			seg.dir.Store(&grown)
			dir = grown
		}
		row := &Row{}
		row.SetLatest(NewVersion(rows[i], 1, Infinity, nil)) // the clock starts at 1
		dir[local>>pageShift][local&pageMask].Store(row)
		seg.count.Add(1)
		seg.used = local + 1 // ids ascend, so locals ascend within a segment
	}
	for g := range t.segs {
		seg := &t.segs[g]
		dir := *seg.dir.Load()
		for local := seg.used - 1; local >= 0; local-- {
			if dir[local>>pageShift][local&pageMask].Load() == nil {
				seg.free = append(seg.free, local)
			}
		}
	}

	// One latch hold per index, primary first, as on the write path.
	if t.primary != nil {
		t.primary.Lock()
		for i, id := range ids {
			key := t.pkKey(rows[i])
			if _, dup := t.primary.Get(key); dup {
				t.primary.Unlock()
				return &ErrDuplicateKey{Table: t.Meta.Name, Index: t.Meta.Indexes[0].Name}
			}
			t.primary.Insert(key, id)
		}
		t.primary.Unlock()
	}
	for _, sec := range t.secondaryList() {
		if err := t.reinstallSecondary(sec, ids, rows); err != nil {
			return err
		}
	}
	for _, data := range rows {
		for ci, col := range t.Meta.Columns {
			if col.AutoInc && !data[ci].IsNull() {
				t.BumpAutoInc(data[ci].Int())
			}
		}
	}
	return nil
}

// reinstallSecondary indexes recovered rows in one secondary index.
func (t *Table) reinstallSecondary(sec secondaryIndex, ids []RowID, rows [][]sqlval.Value) error {
	sec.tree.Lock()
	defer sec.tree.Unlock()
	for i, id := range ids {
		if sec.meta.Unique && t.secondaryConflict(sec, rows[i], id) {
			return &ErrDuplicateKey{Table: t.Meta.Name, Index: sec.meta.Name}
		}
		sec.tree.Insert(indexKey(sec.meta, rows[i], id), id)
	}
	return nil
}

// freeRow releases a slot, but only while it still holds the expected row:
// the compare-and-swap makes racing releases (rollback vs. vacuum) and
// already-recycled slots harmless.
func (t *Table) freeRow(id RowID, row *Row) {
	g, local := rowAddr(id)
	seg := &t.segs[g]
	seg.mu.Lock()
	dir := *seg.dir.Load()
	if pi := local >> pageShift; pi >= 0 && pi < int64(len(dir)) &&
		dir[pi][local&pageMask].CompareAndSwap(row, nil) {
		seg.free = append(seg.free, local)
		seg.count.Add(-1)
	}
	seg.mu.Unlock()
}

// unlinkRow empties a slot lock-free, without recycling it: the local index
// goes back to the allocator only via recycleLocals, once the epoch
// low-watermark proves no reader can still resolve a stale reference to it.
// The compare-and-swap keeps racing releases harmless, like freeRow.
func (t *Table) unlinkRow(id RowID, row *Row) (int64, bool) {
	g, local := rowAddr(id)
	dir := *t.segs[g].dir.Load()
	pi := local >> pageShift
	if pi < 0 || pi >= int64(len(dir)) || !dir[pi][local&pageMask].CompareAndSwap(row, nil) {
		return 0, false
	}
	t.segs[g].count.Add(-1)
	return local, true
}

// recycleLocals returns a batch of unlinked slot indexes of one segment to
// its free list in a single lock hold.
func (t *Table) recycleLocals(g int64, locals []int64) {
	seg := &t.segs[g]
	seg.mu.Lock()
	seg.free = append(seg.free, locals...)
	seg.mu.Unlock()
}

// Row returns the row with the given id, if it exists. Latch-free.
func (t *Table) Row(id RowID) (*Row, bool) {
	if id <= 0 {
		return nil, false
	}
	g, local := rowAddr(id)
	dir := *t.segs[g].dir.Load()
	pi := local >> pageShift
	if pi >= int64(len(dir)) {
		return nil, false
	}
	r := dir[pi][local&pageMask].Load()
	return r, r != nil
}

// RowCount returns the number of occupied row slots (including dead rows
// awaiting GC).
func (t *Table) RowCount() int {
	var n int64
	for i := range t.segs {
		n += t.segs[i].count.Load()
	}
	return int(n)
}

// Segments returns the number of row-store stripes, for callers that iterate
// or vacuum one stripe at a time.
func (t *Table) Segments() int { return NumSegments }

// ScanSegment iterates every occupied slot of one segment in local order,
// latch-free against a directory snapshot. It returns false when fn stopped
// the scan. Rows installed concurrently may or may not be visited; their
// uncommitted versions are invisible to the scanning transaction either way.
func (t *Table) ScanSegment(g int, fn func(id RowID, r *Row) bool) bool {
	dir := *t.segs[g].dir.Load()
	for pi := range dir {
		pg := dir[pi]
		base := int64(pi) << pageShift
		for si := range pg {
			r := pg[si].Load()
			if r == nil {
				continue
			}
			if !fn(makeRowID(int64(g), base+int64(si)), r) {
				return false
			}
		}
	}
	return true
}

// ScanAll iterates every occupied row slot, segment by segment.
func (t *Table) ScanAll(fn func(id RowID, r *Row) bool) {
	for g := 0; g < NumSegments; g++ {
		if !t.ScanSegment(g, fn) {
			return
		}
	}
}
