package heap

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"benchpress/internal/sqlval"
)

func TestPagePutGetDelete(t *testing.T) {
	buf := make([]byte, PageSize)
	p := Format(buf, 7)
	if p.ID() != 7 || p.NumSlots() != 0 {
		t.Fatalf("fresh page: id=%d slots=%d", p.ID(), p.NumSlots())
	}
	if err := p.Put(0, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(3, []byte("delta")); err != nil { // slots 1,2 become dead
		t.Fatal(err)
	}
	if got, ok := p.Slot(0); !ok || string(got) != "alpha" {
		t.Fatalf("slot 0: %q %v", got, ok)
	}
	if _, ok := p.Slot(1); ok {
		t.Fatal("dead slot 1 reads live")
	}
	if got, ok := p.Slot(3); !ok || string(got) != "delta" {
		t.Fatalf("slot 3: %q %v", got, ok)
	}
	// Replace with a longer record, then delete.
	if err := p.Put(0, []byte("a much longer record image")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Slot(0); string(got) != "a much longer record image" {
		t.Fatalf("replaced slot 0: %q", got)
	}
	p.Delete(3)
	if _, ok := p.Slot(3); ok {
		t.Fatal("deleted slot 3 reads live")
	}
	// Seal/Verify round trip, and LSN persistence.
	p.SetLSN(0xDEADBEEF)
	Seal(buf)
	if err := Verify(buf); err != nil {
		t.Fatalf("verify sealed page: %v", err)
	}
	if p.LSN() != 0xDEADBEEF {
		t.Fatalf("LSN = %#x", p.LSN())
	}
	// One flipped byte must fail verification (torn-write detection).
	buf[PageSize-1] ^= 0x40
	if err := Verify(buf); !errors.Is(err, ErrBadPage) {
		t.Fatalf("corrupt page verified: %v", err)
	}
}

func TestPageCompaction(t *testing.T) {
	buf := make([]byte, PageSize)
	p := Format(buf, 1)
	// Fill with records, delete every other one, then insert a record that
	// only fits after compaction reclaims the garbage.
	rec := bytes.Repeat([]byte{0xAA}, 100)
	n := 0
	for ; ; n++ {
		if err := p.Put(n, rec); err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatal(err)
			}
			break
		}
	}
	if n < 30 {
		t.Fatalf("only %d 100-byte records fit a %d-byte page", n, PageSize)
	}
	for i := 0; i < n; i += 2 {
		p.Delete(i)
	}
	big := bytes.Repeat([]byte{0xBB}, 120)
	if err := p.Put(0, big); err != nil {
		t.Fatalf("post-delete insert needing compaction: %v", err)
	}
	if got, ok := p.Slot(0); !ok || !bytes.Equal(got, big) {
		t.Fatal("compacted insert lost")
	}
	// Survivors intact after compaction.
	for i := 1; i < n; i += 2 {
		if got, ok := p.Slot(i); !ok || !bytes.Equal(got, rec) {
			t.Fatalf("slot %d corrupted by compaction", i)
		}
	}
}

func TestPagePutOversized(t *testing.T) {
	buf := make([]byte, PageSize)
	p := Format(buf, 1)
	if err := p.Put(0, bytes.Repeat([]byte{1}, PageSize)); !errors.Is(err, ErrPageFull) {
		t.Fatalf("oversized record accepted: %v", err)
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := [][]sqlval.Value{
		{sqlval.NewInt(42), sqlval.NewString("hello"), sqlval.Null()},
		{sqlval.NewFloat(3.25), sqlval.NewBool(true), sqlval.NewBool(false)},
		{},
		{sqlval.NewString(""), sqlval.NewInt(-1)},
	}
	for i, row := range rows {
		got, err := DecodeRow(EncodeRow(row))
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if len(got) != len(row) {
			t.Fatalf("row %d: %d values, want %d", i, len(got), len(row))
		}
		for j := range row {
			if row[j].IsNull() != got[j].IsNull() || (!row[j].IsNull() && sqlval.Compare(row[j], got[j]) != 0) {
				t.Fatalf("row %d col %d: %v != %v", i, j, got[j], row[j])
			}
		}
	}
	for i, bad := range [][]byte{nil, {1}, {2, 0, byte(sqlval.KindInt), 1}, {1, 0, 99}} {
		if _, err := DecodeRow(bad); err == nil {
			t.Errorf("bad row %d decoded", i)
		}
	}
}

// TestRowCodecTimeRow pins the bytes of a KindTime row (UnixNano,
// little-endian, whatever the time's location): heap pages and WAL images
// written by earlier runs must decode to the same instants.
func TestRowCodecTimeRow(t *testing.T) {
	moon := time.Date(1969, 7, 20, 20, 17, 40, 123456789, time.UTC)
	row := []sqlval.Value{
		sqlval.NewTime(moon),
		sqlval.NewTime(moon.In(time.FixedZone("UTC-7", -7*3600))),
		sqlval.NewTime(time.Unix(0, 1723111222333444555)),
		sqlval.NewFloat(-0.5),
		sqlval.Null(),
	}
	const want = "05000515b5c9fab09ccdff0515b5c9fab09ccdff05cb91acfb86b8e91702000000000000e0bf00"
	b := EncodeRow(row)
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("EncodeRow = %s, want %s", got, want)
	}
	got, err := DecodeRow(b)
	if err != nil {
		t.Fatal(err)
	}
	if sqlval.CompareRows(got, row) != 0 || !got[4].IsNull() {
		t.Fatalf("DecodeRow = %v, want %v", got, row)
	}
	if !got[0].Time().Equal(moon) || got[0].Time().Nanosecond() != 123456789 {
		t.Fatalf("decoded time %v, want %v", got[0].Time(), moon)
	}
}

// TestPageRandomizedOps drives a page against a map model with a mixed
// workload of puts, replacements, and deletes at random slots.
func TestPageRandomizedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, PageSize)
	p := Format(buf, 3)
	model := map[int][]byte{}
	for step := 0; step < 5000; step++ {
		slot := rng.Intn(40)
		switch rng.Intn(3) {
		case 0, 1:
			rec := make([]byte, 1+rng.Intn(60))
			for i := range rec {
				rec[i] = byte(rng.Intn(256))
			}
			if err := p.Put(slot, rec); err != nil {
				if !errors.Is(err, ErrPageFull) {
					t.Fatal(err)
				}
				continue
			}
			model[slot] = rec
		case 2:
			p.Delete(slot)
			delete(model, slot)
		}
	}
	for slot := 0; slot < 40; slot++ {
		want, live := model[slot]
		got, ok := p.Slot(slot)
		if ok != live || (live && !bytes.Equal(got, want)) {
			t.Fatalf("slot %d: model live=%v page live=%v", slot, live, ok)
		}
	}
	Seal(buf)
	if err := Verify(buf); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsCraftedGeometry(t *testing.T) {
	buf := make([]byte, PageSize)
	p := Format(buf, 1)
	if err := p.Put(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Point the slot outside the records area and re-seal: checksum is
	// valid, geometry is not.
	p.setSlotEntry(0, PageSize-1, 40)
	Seal(buf)
	if err := Verify(buf); !errors.Is(err, ErrBadPage) {
		t.Fatalf("crafted geometry verified: %v", err)
	}
}

func ExampleFormat() {
	buf := make([]byte, PageSize)
	p := Format(buf, 12)
	_ = p.Put(0, []byte("row"))
	rec, _ := p.Slot(0)
	fmt.Println(p.ID(), string(rec))
	// Output: 12 row
}
