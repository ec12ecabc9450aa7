package wal

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// commitFrameSize is the sink footprint of one framed commit record.
var commitFrameSize = PayloadHeaderSize + len(EncodeCommit(0))

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	if err := l.AppendRecord(EncodeCommit(3)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if l.Records() != 0 || l.Flushes() != 0 || l.Bytes() != 0 {
		t.Fatal("nil log counters")
	}
	if l.Policy() != SyncNone {
		t.Fatal("nil log policy")
	}
}

func TestSyncNoneNeverWaits(t *testing.T) {
	l := New(Options{Policy: SyncNone})
	defer l.Close()
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if err := l.AppendRecord(EncodeCommit(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("SyncNone appends took %v", d)
	}
	if l.Records() != 1000 {
		t.Fatalf("records = %d", l.Records())
	}
}

func TestSyncGroupFlushesAndReleases(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	l := New(Options{Policy: SyncGroup, GroupInterval: 100 * time.Microsecond, W: w})
	defer l.Close()

	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			if err := l.AppendRecord(EncodeCommit(id)); err != nil {
				t.Error(err)
			}
		}(uint64(i))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("group-commit waiters never released")
	}
	if l.Records() != 20 {
		t.Fatalf("records = %d", l.Records())
	}
	// Group commit must batch: with 20 appends in ~one interval, the flush
	// count should be well below the record count.
	if l.Flushes() == 0 || l.Flushes() >= 20 {
		t.Fatalf("flushes = %d (batching broken)", l.Flushes())
	}
	mu.Lock()
	n := buf.Len()
	mu.Unlock()
	if n != 20*commitFrameSize {
		t.Fatalf("flushed bytes = %d, want %d", n, 20*commitFrameSize)
	}
}

func TestSyncAsyncDoesNotBlock(t *testing.T) {
	l := New(Options{Policy: SyncAsync, GroupInterval: time.Millisecond})
	start := time.Now()
	for i := 0; i < 100; i++ {
		if err := l.AppendRecord(EncodeCommit(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("SyncAsync appends blocked: %v", d)
	}
	l.Close() // final flush
	if l.Bytes() != uint64(100*commitFrameSize) {
		t.Fatalf("bytes = %d", l.Bytes())
	}
}

func TestDoubleCloseSafe(t *testing.T) {
	l := New(Options{Policy: SyncGroup})
	l.Close()
	l.Close()
}

func TestPolicyString(t *testing.T) {
	if SyncNone.String() != "none" || SyncAsync.String() != "async" || SyncGroup.String() != "group" {
		t.Fatal("policy names")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// failAfter returns a writer that accepts n bytes, then fails every write
// with errDevice.
func failAfter(n int, buf *bytes.Buffer) writerFunc {
	return func(p []byte) (int, error) {
		if buf.Len()+len(p) > n {
			take := n - buf.Len()
			if take < 0 {
				take = 0
			}
			buf.Write(p[:take])
			return take, errDevice
		}
		buf.Write(p)
		return len(p), nil
	}
}

var errDevice = errors.New("wal test: device failure")

// TestGroupCommitWriteErrorPropagates is the regression test for the
// ack-on-failed-flush bug: flush() used to ignore the sink's write error and
// close the generation channel anyway, acknowledging commits whose records
// never reached the device. Every waiter of a failed flush must see the
// error, and the log must stay failed afterwards.
func TestGroupCommitWriteErrorPropagates(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	inner := failAfter(0, &buf) // device dead from the start
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return inner(p)
	})
	l := New(Options{Policy: SyncGroup, GroupInterval: 50 * time.Microsecond, W: w})
	defer l.Close()

	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- l.AppendRecord(EncodeCommit(1))
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("group-commit waiter acknowledged despite failed flush")
		}
	}
	// The device failure is sticky: later appends fail immediately.
	if err := l.AppendRecord(EncodeCommit(1)); err == nil {
		t.Fatal("append succeeded on a failed log")
	}
}

// TestCloseNeverAcksFailedFlush is the regression test for waiters parked
// in a generation that Close flushes: they used to return nil as soon as
// Close signalled shutdown, acknowledging commits whose final flush then
// failed. The first append seals inline (a fresh log is past its deadline)
// and reaches the sink; the second parks behind the long interval, so only
// Close's flush can carry its record, and that flush hits a dead device.
func TestCloseNeverAcksFailedFlush(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		var buf bytes.Buffer
		l := New(Options{Policy: SyncGroup, GroupInterval: 10 * time.Second, W: failAfter(commitFrameSize, &buf)})
		if err := l.AppendRecord(EncodeCommit(1)); err != nil {
			t.Fatalf("trial %d: first append: %v", trial, err)
		}
		errc := make(chan error, 1)
		go func() { errc <- l.AppendRecord(EncodeCommit(2)) }()
		for l.Records() < 2 {
			time.Sleep(10 * time.Microsecond)
		}
		l.Close()
		if err := <-errc; !errors.Is(err, errDevice) {
			t.Fatalf("trial %d: parked appender got %v after Close's failed flush, want %v", trial, err, errDevice)
		}
	}
}

// TestSyncNoneWriteErrorFailsAppend pins write-through semantics: a failed
// or short write must surface on the very append that hit it, and the log
// must refuse all further appends.
func TestSyncNoneWriteErrorFailsAppend(t *testing.T) {
	var buf bytes.Buffer
	l := New(Options{Policy: SyncNone, W: failAfter(commitFrameSize+4, &buf)})
	defer l.Close()
	if err := l.AppendRecord(EncodeCommit(1)); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if err := l.AppendRecord(EncodeCommit(2)); err == nil {
		t.Fatal("append with torn write acknowledged")
	}
	if err := l.AppendRecord(EncodeCommit(3)); err == nil {
		t.Fatal("append on failed log acknowledged")
	}
	if got := l.Records(); got != 1 {
		t.Fatalf("records = %d, want 1 (failed appends must not count)", got)
	}
}

// TestAppendRecordRoundTrip checks the framed payload path end to end:
// records come back in order, sequence-stamped, with payloads intact.
func TestAppendRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := New(Options{Policy: SyncNone, W: &buf})
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma-longer-payload")}
	for _, p := range payloads {
		if err := l.AppendRecord(p); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	recs, _, err := ScanRecords(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(payloads) {
		t.Fatalf("read %d records, want %d", len(recs), len(payloads))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq = %d", i, rec.Seq)
		}
		if !bytes.Equal(rec.Payload, payloads[i]) {
			t.Fatalf("record %d: payload %q, want %q", i, rec.Payload, payloads[i])
		}
	}
}

// TestScanRecordsTornTail checks crash-recovery parsing: a log cut anywhere
// inside the final record yields the complete prefix plus ErrTorn, never a
// corrupted record.
func TestScanRecordsTornTail(t *testing.T) {
	var buf bytes.Buffer
	l := New(Options{Policy: SyncNone, W: &buf})
	if err := l.AppendRecord([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRecord([]byte("second-record")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	whole := buf.Bytes()
	firstLen := PayloadHeaderSize + len("first")
	for cut := firstLen; cut < len(whole); cut++ {
		recs, clean, err := ScanRecords(whole[:cut])
		if cut == firstLen {
			if err != nil {
				t.Fatalf("cut %d: clean boundary returned %v", cut, err)
			}
		} else if err != ErrTorn {
			t.Fatalf("cut %d: err = %v, want ErrTorn", cut, err)
		}
		if len(recs) != 1 || !bytes.Equal(recs[0].Payload, []byte("first")) || clean != firstLen {
			t.Fatalf("cut %d: surviving prefix = %v, clean length %d", cut, recs, clean)
		}
	}
}

// TestScanRecordsRejectsCorruption checks that bit rot inside a record body
// is caught by the checksum rather than silently replayed.
func TestScanRecordsRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	l := New(Options{Policy: SyncNone, W: &buf})
	if err := l.AppendRecord([]byte("payload-to-corrupt")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	img := append([]byte(nil), buf.Bytes()...)
	img[PayloadHeaderSize+3] ^= 0x40 // flip one payload bit
	if _, _, err := ScanRecords(img); err == nil {
		t.Fatal("corrupted record replayed without error")
	}
}

// TestPipelinedCommitOrdering tortures the two-generations-in-flight path: a
// deliberately slow sink guarantees that while one generation's bytes are
// being written, appenders fill and seal the next. The replayed log must
// contain every acknowledged record exactly once with strictly sequential
// numbers — ScanRecords hard-errors on any sequence jump, so an out-of-order
// or duplicated sink write cannot pass. The unguarded buffer also lets the
// race detector verify that the generation chain alone serializes writers.
func TestPipelinedCommitOrdering(t *testing.T) {
	var buf bytes.Buffer
	slow := writerFunc(func(p []byte) (int, error) {
		time.Sleep(50 * time.Microsecond) // hold the pipe so generations stack up
		return buf.Write(p)
	})
	l := New(Options{Policy: SyncGroup, GroupInterval: 50 * time.Microsecond, W: slow})

	const workers, perWorker = 8, 50
	var acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := l.AppendRecord([]byte{byte(i)}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				acked.Add(1)
			}
		}()
	}
	wg.Wait()
	l.Close()

	recs, _, err := ScanRecords(buf.Bytes())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if int64(len(recs)) != acked.Load() {
		t.Fatalf("replayed %d records, acknowledged %d", len(recs), acked.Load())
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d: sink bytes out of seal order", i, rec.Seq)
		}
	}
	if f := l.Flushes(); f < 2 || f >= uint64(len(recs)) {
		t.Fatalf("flushes = %d for %d records: pipeline did not batch", f, len(recs))
	}
}
