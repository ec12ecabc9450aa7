package wal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func TestARIESRoundTrip(t *testing.T) {
	upd := UpdateRec{
		TxnID: 42, PageID: 7, Slot: 3,
		Before: []byte("old image"), After: []byte("new image"),
	}
	rec, err := DecodeARIES(EncodeUpdate(upd))
	if err != nil {
		t.Fatalf("decode update: %v", err)
	}
	if rec.Kind != KindUpdate || !reflect.DeepEqual(rec.Update, upd) {
		t.Fatalf("update round trip: got %+v want %+v", rec.Update, upd)
	}

	// Empty before-image (insert) and empty after-image (delete) survive.
	for _, u := range []UpdateRec{
		{TxnID: 1, PageID: 2, Slot: 0, After: []byte("x")},
		{TxnID: 1, PageID: 2, Slot: 9, Before: []byte("x")},
	} {
		rec, err := DecodeARIES(EncodeUpdate(u))
		if err != nil {
			t.Fatalf("decode %+v: %v", u, err)
		}
		if len(rec.Update.Before) != len(u.Before) || len(rec.Update.After) != len(u.After) {
			t.Fatalf("image lengths changed: got %+v want %+v", rec.Update, u)
		}
	}

	rec, err = DecodeARIES(EncodeCommit(99))
	if err != nil {
		t.Fatalf("decode commit: %v", err)
	}
	if rec.Kind != KindCommit || rec.Commit != 99 {
		t.Fatalf("commit round trip: got %+v", rec)
	}

	ckpt := CheckpointRec{Dirty: []DirtyPage{{PageID: 1, RecLSN: 10}, {PageID: 5, RecLSN: 12}}}
	rec, err = DecodeARIES(EncodeCheckpoint(ckpt))
	if err != nil {
		t.Fatalf("decode checkpoint: %v", err)
	}
	if rec.Kind != KindCheckpoint || !reflect.DeepEqual(rec.Checkpoint, ckpt) {
		t.Fatalf("checkpoint round trip: got %+v want %+v", rec.Checkpoint, ckpt)
	}
	if rec, err = DecodeARIES(EncodeCheckpoint(CheckpointRec{})); err != nil || len(rec.Checkpoint.Dirty) != 0 {
		t.Fatalf("empty checkpoint: %+v, %v", rec, err)
	}
}

func TestARIESDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},                           // unknown kind
		{byte(KindUpdate), 1, 2},      // short update
		{byte(KindCommit), 1, 2, 3},   // short commit
		{byte(KindCheckpoint), 1, 2},  // short checkpoint
		append(EncodeCommit(1), 0xFF), // trailing bytes
		EncodeUpdate(UpdateRec{After: []byte("x")})[:16], // truncated blob
	}
	// Absurd blob length prefix inside an update record.
	bad := EncodeUpdate(UpdateRec{TxnID: 1, PageID: 1})
	bad[15] = 0xFF // before-image length low byte -> exceeds remaining
	cases = append(cases, bad)
	// Checkpoint claiming more entries than its bytes hold.
	badCk := EncodeCheckpoint(CheckpointRec{Dirty: []DirtyPage{{PageID: 1, RecLSN: 1}}})
	badCk[1] = 200
	cases = append(cases, badCk)
	for i, c := range cases {
		if _, err := DecodeARIES(c); err == nil {
			t.Errorf("case %d (% x): decode accepted malformed payload", i, c)
		}
	}
}

func TestAppendRecordAsyncAndDurableLSN(t *testing.T) {
	var sink bytes.Buffer
	l := New(Options{Policy: SyncNone, W: &sink})
	lsn1, err := l.AppendRecordAsync(EncodeCommit(1))
	if err != nil || lsn1 != 1 {
		t.Fatalf("async append: lsn=%d err=%v", lsn1, err)
	}
	if err := l.AppendRecord(EncodeCommit(2)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if got := l.DurableLSN(); got != 2 {
		t.Fatalf("DurableLSN = %d, want 2", got)
	}
	recs, _, err := ScanRecords(sink.Bytes())
	if err != nil || len(recs) != 2 {
		t.Fatalf("ScanRecords: %d recs, %v", len(recs), err)
	}
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("sequence: %d, %d", recs[0].Seq, recs[1].Seq)
	}
}

func TestAppendRecordAsyncGroupOrdering(t *testing.T) {
	var sink bytes.Buffer
	l := New(Options{Policy: SyncGroup, W: &sink})
	// Async updates followed by one awaited commit record: the commit's
	// durability verdict must cover the whole batch, in sequence order.
	for i := 0; i < 5; i++ {
		if _, err := l.AppendRecordAsync(EncodeUpdate(UpdateRec{TxnID: 9, PageID: uint32(i)})); err != nil {
			t.Fatalf("async append %d: %v", i, err)
		}
	}
	if err := l.AppendRecord(EncodeCommit(9)); err != nil {
		t.Fatalf("commit append: %v", err)
	}
	if got := l.DurableLSN(); got < 6 {
		t.Fatalf("DurableLSN = %d after awaited commit, want >= 6", got)
	}
	l.Close()
	recs, _, err := ScanRecords(sink.Bytes())
	if err != nil || len(recs) != 6 {
		t.Fatalf("ScanRecords: %d recs, %v", len(recs), err)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
}

func TestStartSeqContinuation(t *testing.T) {
	var first bytes.Buffer
	l := New(Options{Policy: SyncNone, W: &first})
	for i := 0; i < 3; i++ {
		if err := l.AppendRecord(EncodeCommit(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	recs, n, err := ScanRecords(first.Bytes())
	if err != nil || len(recs) != 3 || n != first.Len() {
		t.Fatalf("scan: %d recs, clean=%d/%d, %v", len(recs), n, first.Len(), err)
	}
	// Reopen continuing from the surviving sequence; the combined byte
	// stream must scan as one consecutive log.
	var second bytes.Buffer
	l2 := New(Options{Policy: SyncNone, W: &second, StartSeq: recs[len(recs)-1].Seq})
	if err := l2.AppendRecord(EncodeCommit(7)); err != nil {
		t.Fatal(err)
	}
	combined := append(append([]byte{}, first.Bytes()...), second.Bytes()...)
	recs, _, err = ScanRecords(combined)
	if err != nil || len(recs) != 4 || recs[3].Seq != 4 {
		t.Fatalf("combined scan: %d recs, %v", len(recs), err)
	}
}

func TestScanRecordsCleanPrefix(t *testing.T) {
	var sink bytes.Buffer
	l := New(Options{Policy: SyncNone, W: &sink})
	for i := 0; i < 2; i++ {
		if err := l.AppendRecord(EncodeCommit(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	clean := sink.Len()
	sink.Write([]byte{recordMagic, 0, 0}) // torn header
	recs, n, err := ScanRecords(sink.Bytes())
	if !errors.Is(err, ErrTorn) || len(recs) != 2 || n != clean {
		t.Fatalf("torn scan: %d recs, clean=%d want %d, err=%v", len(recs), n, clean, err)
	}
}
