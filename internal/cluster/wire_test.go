package cluster

import (
	"bytes"
	"encoding/hex"
	"io"
	"reflect"
	"testing"
	"time"

	"benchpress/internal/dbdriver"
	"benchpress/internal/sqldb/exec"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/sqlval"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	if err := WriteFrame(&buf, FrameStats, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, FrameBye, nil); err != nil {
		t.Fatal(err)
	}
	typ, p, err := ReadFrame(&buf)
	if err != nil || typ != FrameStats || !bytes.Equal(p, payload) {
		t.Fatalf("frame 1: typ=%#x p=%v err=%v", typ, p, err)
	}
	typ, p, err = ReadFrame(&buf)
	if err != nil || typ != FrameBye || len(p) != 0 {
		t.Fatalf("frame 2: typ=%#x p=%v err=%v", typ, p, err)
	}
	if _, _, err = ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected clean EOF at frame boundary, got %v", err)
	}
}

func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameAssign, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	got := AppendFrame(nil, FrameAssign, []byte("xyz"))
	if !bytes.Equal(buf.Bytes(), got) {
		t.Fatalf("AppendFrame %x != WriteFrame %x", got, buf.Bytes())
	}
}

func TestReadFrameRejectsBadLengths(t *testing.T) {
	// Oversized length prefix must fail before allocating.
	big := []byte{0xff, 0xff, 0xff, 0xff, 0x00}
	if _, _, err := ReadFrame(bytes.NewReader(big)); err != ErrFrameTooLarge {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
	// Zero length has no room for the type byte.
	zero := []byte{0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(zero)); err != ErrMalformed {
		t.Fatalf("zero-length frame: got %v, want ErrMalformed", err)
	}
}

// TestTruncatedFramesNeverPanic feeds every proper prefix of valid frames to
// the reader: each must produce an error (EOF only at offset 0), never a
// panic or a phantom frame.
func TestTruncatedFramesNeverPanic(t *testing.T) {
	var buf bytes.Buffer
	u := StatsUpdate{Seq: 9, Committed: 1234, Types: []TypeDelta{{Index: 3, Count: 7, Buckets: []int64{0, 0, 5, 0, 2}}}}
	if err := WriteFrame(&buf, FrameStats, u.encode()); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(whole[:cut]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes read as a whole frame", cut, len(whole))
		}
		if cut >= 4 && err != io.ErrUnexpectedEOF {
			t.Fatalf("mid-frame tear at %d: got %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestControlMessageRoundTrips(t *testing.T) {
	hello := Hello{Proto: ProtoVersion, WorkerID: 7, Name: "w7", Benchmark: "ycsb", DB: "gomvcc", Types: []string{"Read", "Update"}}
	gotH, err := decodeHello(hello.encode())
	if err != nil || !reflect.DeepEqual(gotH, hello) {
		t.Fatalf("hello: %+v err=%v", gotH, err)
	}

	welcome := Welcome{WorkerID: 7, WindowUS: 1_000_000, FlushUS: 250_000, HeartbeatUS: 500_000}
	gotW, err := decodeWelcome(welcome.encode())
	if err != nil || gotW != welcome {
		t.Fatalf("welcome: %+v err=%v", gotW, err)
	}

	assign := Assign{Gen: 42, Rate: 123.5, Paused: true, Mix: []float64{0.5, 0.25, 0.25}}
	gotA, err := decodeAssign(assign.encode())
	if err != nil || !reflect.DeepEqual(gotA, assign) {
		t.Fatalf("assign: %+v err=%v", gotA, err)
	}

	hb := Heartbeat{Committed: 10, Aborted: 2, Errors: 1, Retries: 4}
	gotB, err := decodeHeartbeat(hb.encode())
	if err != nil || gotB != hb {
		t.Fatalf("heartbeat: %+v err=%v", gotB, err)
	}

	bye := Bye{Reason: "done"}
	gotY, err := decodeBye(bye.encode())
	if err != nil || gotY != bye {
		t.Fatalf("bye: %+v err=%v", gotY, err)
	}
}

func TestStatsUpdateRoundTripSparse(t *testing.T) {
	buckets := make([]int64, 2048)
	buckets[0] = 3
	buckets[100] = 17
	buckets[2047] = 1
	u := StatsUpdate{
		Seq: 5, Window: 2, Committed: 21, Aborted: 1, Errors: 0, Retries: 2,
		SumLatencyUS: 424242,
		Types: []TypeDelta{
			{Index: 0, Count: 21, SumUS: 424242, MaxUS: 999999, Buckets: buckets},
			{Index: 3, Count: 0, SumUS: 0, MaxUS: 50, Buckets: []int64{0, 1}},
		},
	}
	got, err := decodeStatsUpdate(u.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != u.Seq || got.Committed != u.Committed || got.SumLatencyUS != u.SumLatencyUS {
		t.Fatalf("scalar mismatch: %+v", got)
	}
	if len(got.Types) != 2 {
		t.Fatalf("types: %d", len(got.Types))
	}
	// Sparse decode allocates up to the highest occupied bucket; every
	// encoded count must land on its original index.
	for i, want := range buckets {
		var have int64
		if i < len(got.Types[0].Buckets) {
			have = got.Types[0].Buckets[i]
		}
		if have != want {
			t.Fatalf("bucket %d: got %d want %d", i, have, want)
		}
	}
	if got.Types[1].Buckets[1] != 1 {
		t.Fatalf("second type buckets: %v", got.Types[1].Buckets)
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	p := append(Heartbeat{Committed: 1}.encode(), 0xFF)
	if _, err := decodeHeartbeat(p); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestEngineExecRoundTrip(t *testing.T) {
	when := time.Unix(0, 1723111222333444555)
	req := engineExec{
		Query: true,
		SQL:   "SELECT v FROM kv WHERE k = ?",
		Args: []sqlval.Value{
			sqlval.NewInt(-7),
			sqlval.NewFloat(3.25),
			sqlval.NewString("abc"),
			sqlval.NewBool(true),
			sqlval.NewTime(when),
			sqlval.Null(),
		},
	}
	got, err := decodeEngineExec(req.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Query != req.Query || got.SQL != req.SQL || len(got.Args) != len(req.Args) {
		t.Fatalf("shape mismatch: %+v", got)
	}
	if got.Args[0].Int() != -7 || got.Args[1].Float() != 3.25 || got.Args[2].Str() != "abc" ||
		!got.Args[3].Bool() || !got.Args[4].Time().Equal(when) || !got.Args[5].IsNull() {
		t.Fatalf("value mismatch: %+v", got.Args)
	}
}

func TestEngineResultRoundTrip(t *testing.T) {
	r := &exec.Result{
		Columns: []string{"k", "v"},
		Rows: [][]sqlval.Value{
			{sqlval.NewInt(1), sqlval.NewString("a")},
			{sqlval.NewInt(2), sqlval.Null()},
		},
		RowsAffected: 2,
		LastInsertID: 17,
	}
	got, err := decodeEngineResult(encodeEngineResult(r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Columns, r.Columns) || got.RowsAffected != 2 || got.LastInsertID != 17 {
		t.Fatalf("result header mismatch: %+v", got)
	}
	if len(got.Rows) != 2 || got.Rows[0][1].Str() != "a" || !got.Rows[1][1].IsNull() {
		t.Fatalf("rows mismatch: %+v", got.Rows)
	}
}

// TestEngineResultTimeRow pins the wire bytes of KindTime values (a UnixNano
// varint, whatever the time's location): a coordinator and a worker built
// from different commits must agree on them.
func TestEngineResultTimeRow(t *testing.T) {
	moon := time.Date(1969, 7, 20, 20, 17, 40, 123456789, time.UTC)
	row := []sqlval.Value{
		sqlval.NewTime(moon),
		sqlval.NewTime(moon.In(time.FixedZone("UTC-7", -7*3600))),
		sqlval.NewTime(time.Unix(0, 1723111222333444555)),
	}
	p := encodeEngineResult(&exec.Result{Columns: []string{"t"}, Rows: [][]sqlval.Value{row}})
	const want = "010174010305d5abb2d3e0d3b13205d5abb2d3e0d3b1320596c7e4badfa1dce92f0000"
	if got := hex.EncodeToString(p); got != want {
		t.Fatalf("encoded result %s, want %s", got, want)
	}
	got, err := decodeEngineResult(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || sqlval.CompareRows(got.Rows[0], row) != 0 {
		t.Fatalf("rows %v, want %v", got.Rows, row)
	}
	if !got.Rows[0][1].Time().Equal(moon) {
		t.Fatalf("decoded time %v, want %v", got.Rows[0][1].Time(), moon)
	}
}

// TestErrorClassificationSurvivesWire is the property the workload manager's
// retry loop depends on: a retryable engine abort shipped over the wire must
// still satisfy dbdriver.IsRetryable after reconstruction.
func TestErrorClassificationSurvivesWire(t *testing.T) {
	for _, sentinel := range []error{txn.ErrWriteConflict, txn.ErrDeadlock, txn.ErrBusy} {
		class := classifyError(sentinel)
		back := declassifyError(class, sentinel.Error())
		if !dbdriver.IsRetryable(back) {
			t.Fatalf("%v lost retryability over the wire (class %d): %v", sentinel, class, back)
		}
	}
	generic := declassifyError(classifyError(io.EOF), "boom")
	if dbdriver.IsRetryable(generic) {
		t.Fatalf("generic error became retryable: %v", generic)
	}
}

func TestSparseBucketsRejectCorruptIndexes(t *testing.T) {
	var e enc
	e.uvarint(1)       // one pair
	e.uvarint(1 << 40) // absurd gap
	e.uvarint(5)
	d := dec{b: e.b}
	decodeSparseBuckets(&d, 0, 2048)
	if d.finish() == nil {
		t.Fatal("corrupt gap accepted")
	}
}
