package wal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func TestCommitRecordRoundTrip(t *testing.T) {
	// The zero-row form is the nine bytes RAM engines have always logged.
	bare := EncodeCommit(99)
	if want := []byte{commitKind, 99, 0, 0, 0, 0, 0, 0, 0}; !bytes.Equal(bare, want) {
		t.Fatalf("bare commit = % x, want % x", bare, want)
	}
	rec, err := DecodeCommit(bare)
	if err != nil || rec.TxnID != 99 || rec.Rows != nil {
		t.Fatalf("bare commit round trip: %+v, %v", rec, err)
	}

	rows := []RowImage{
		{Table: 3, Row: 17, Image: []byte("new image")},
		{Table: 3, Row: 4},                      // delete
		{Table: 0, Row: 3, Image: []byte("{}")}, // catalog image
		{Table: 9, Row: -1, Image: bytes.Repeat([]byte{0xAB}, 300)},
	}
	if got := EncodeCommitRows(99, nil); !bytes.Equal(got, bare) {
		t.Fatalf("EncodeCommitRows without rows = % x, want the bare form", got)
	}
	rec, err = DecodeCommit(EncodeCommitRows(42, rows))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rec.TxnID != 42 || !reflect.DeepEqual(rec.Rows, rows) {
		t.Fatalf("round trip: got %+v want %+v", rec.Rows, rows)
	}
}

func TestCommitRecordDecodeErrors(t *testing.T) {
	one := EncodeCommitRows(1, []RowImage{{Table: 1, Row: 2, Image: []byte("x")}})
	cases := [][]byte{
		nil,
		{0},                                 // unknown kind
		{commitKind, 1, 2, 3},               // short commit
		{7, 1, 0, 0, 0, 0, 0, 0, 0},         // wrong kind, right length
		append(EncodeCommit(1), 0xFF),       // trailing bytes after the bare form
		append(EncodeCommit(1), 0, 0, 0, 0), // explicit zero row count
		one[:len(one)-1],                    // truncated image
		append(one, 0),                      // trailing bytes after the rows
		one[:9+4+5],                         // truncated row header
	}
	// Absurd row count and image length.
	badCount := append([]byte{}, one...)
	badCount[9], badCount[12] = 0xFF, 0xFF
	cases = append(cases, badCount)
	badLen := append([]byte{}, one...)
	badLen[9+4+12+3] = 0x7F
	cases = append(cases, badLen)
	for i, c := range cases {
		if _, err := DecodeCommit(c); err == nil {
			t.Errorf("case %d (% x): decode accepted malformed payload", i, c)
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
