package wal

import (
	"bytes"
	"testing"
)

// FuzzWALRecordDecode drives the commit record parser with hostile input:
// any byte string must either decode to a record that re-encodes to exactly
// the same bytes, or return an error — never panic. Every payload also
// round-trips through a framed log so ScanRecords' tolerance contract (torn
// tail vs hard error) is exercised on mutated frames too.
func FuzzWALRecordDecode(f *testing.F) {
	seeds := [][]byte{
		EncodeCommit(77),
		EncodeCommitRows(3, []RowImage{{Table: 1, Row: 2, Image: []byte("after-image")}}),
		EncodeCommitRows(1, []RowImage{
			{Table: 2, Row: 1, Image: []byte("one")},
			{Table: 2, Row: 33},
			{Table: 5, Row: 1 << 40, Image: []byte("far")}}),
		EncodeCommitRows(SystemTxnID, []RowImage{{Table: 0, Row: 4, Image: []byte(`{"Name":"t"}`)}}),
		EncodeCommitRows(9, []RowImage{{Table: 7, Row: 9, Image: bytes.Repeat([]byte{0xAB}, 100)}}),
		EncodeCommitRows(5, []RowImage{{Table: 0, Row: 4}, {Table: 0, Row: 4, Image: []byte("{}")}}),
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)-1])    // truncated tail
		f.Add(append(s, 0x00)) // trailing byte
		f.Add(s[:1])           // kind byte only
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	// Absurd image length and absurd row count.
	huge := EncodeCommitRows(1, []RowImage{{Table: 1, Row: 1, Image: []byte("x")}})
	huge[9+4+12+2], huge[9+4+12+3] = 0xFF, 0xFF
	f.Add(huge)
	many := EncodeCommitRows(1, []RowImage{{Table: 1, Row: 1, Image: []byte("x")}})
	many[9+2], many[9+3] = 0xFF, 0xFF
	f.Add(many)

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeCommit(payload)
		if err != nil {
			return
		}
		// The encoder is the only writer of this format: a successful
		// decode must re-encode to the very bytes it came from.
		if enc := EncodeCommitRows(rec.TxnID, rec.Rows); !bytes.Equal(enc, payload) {
			t.Fatalf("round trip changed the payload:\n got % x\nwant % x", enc, payload)
		}

		// Frame the payload into a log and replay it: the framed path must
		// return the payload intact, and mutating any frame byte must yield
		// ErrTorn or a hard error, never a panic or silent corruption.
		var sink bytes.Buffer
		l := New(Options{Policy: SyncNone, W: &sink})
		if err := l.AppendRecord(payload); err != nil {
			t.Fatalf("append: %v", err)
		}
		recs, _, err := ScanRecords(sink.Bytes())
		if err != nil || len(recs) != 1 || !bytes.Equal(recs[0].Payload, payload) {
			t.Fatalf("framed round trip: %d recs, err=%v", len(recs), err)
		}
		if sink.Len() > 0 {
			mut := append([]byte{}, sink.Bytes()...)
			mut[len(mut)-1] ^= 0x01
			got, _, err := ScanRecords(mut)
			if err == nil && len(got) == 1 && bytes.Equal(got[0].Payload, payload) {
				t.Fatalf("mutated frame scanned as the original record")
			}
		}
	})
}
