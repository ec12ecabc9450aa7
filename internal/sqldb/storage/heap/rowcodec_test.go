package heap

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"benchpress/internal/sqlval"
)

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
	for i, bad := range [][]byte{
		nil, {1}, {2, 0, byte(sqlval.KindInt), 1}, {1, 0, 99},
		{1, 0, byte(sqlval.KindBool), 2}, // a bool byte EncodeRow never writes
		{0xFF, 0xFF, 0},                  // more columns than bytes
	} {
		if _, err := DecodeRow(bad); err == nil {
			t.Errorf("bad row %d decoded", i)
		}
	}
}

// TestRowCodecTimeRow pins the bytes of a KindTime row (UnixNano,
// little-endian, whatever the time's location): logs written by earlier
// runs must decode to the same instants.
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

// FuzzRowDecode feeds DecodeRow hostile input, as recovery does with every
// row of a crashed log: any byte string either decodes to values that
// re-encode to exactly the same bytes, or returns an error — never panics.
func FuzzRowDecode(f *testing.F) {
	seeds := [][]sqlval.Value{
		{sqlval.NewInt(42), sqlval.NewString("hello"), sqlval.Null()},
		{sqlval.NewFloat(3.25), sqlval.NewBool(true), sqlval.NewBool(false)},
		{sqlval.NewTime(time.Unix(0, 1723111222333444555)), sqlval.NewFloat(-0.5)},
		{},
	}
	for _, row := range seeds {
		b := EncodeRow(row)
		f.Add(b)
		f.Add(b[:len(b)-1]) // truncated
		f.Add(append(b, 0)) // trailing byte
	}
	// Absurd string length and column count.
	f.Add([]byte{1, 0, byte(sqlval.KindString), 0xFF, 0xFF, 0xFF, 0x7F, 'x'})
	f.Add([]byte{0xFF, 0xFF, byte(sqlval.KindNull)})

	f.Fuzz(func(t *testing.T, b []byte) {
		vals, err := DecodeRow(b)
		if err != nil {
			return
		}
		if enc := EncodeRow(vals); !bytes.Equal(enc, b) {
			t.Fatalf("round trip changed the image:\n got % x\nwant % x", enc, b)
		}
	})
}
