// Package wal implements a write-ahead log with emulated durability cost.
//
// The engine substitutes this for a real disk fsync path: every record is
// one checksummed frame (magic, sequence number, payload length, FNV-32a of
// the payload, then the payload), buffered or written through, and the
// configured sync policy determines how long a committing transaction
// waits. SyncGroup reproduces group commit - many concurrent committers
// share one flush - which is the dominant throughput/latency trade-off the
// BenchPress demo surfaces when a DBMS "struggles at maintaining the rate".
//
// SyncGroup is pipelined: commits accumulate in the current generation, and
// sealing a generation immediately opens the next one, so the next batch
// fills while the previous one is being written ("fsynced"). Generations
// write in seal order - each generation's writer waits for its predecessor's
// verdict before touching the sink - so the on-disk byte order always equals
// the append sequence order even when flushes overlap with fills.
//
// Generations seal on the earlier of two triggers. (1) The configured
// interval: an append that arrives past the deadline seals inline, and the
// generation's first appender leads it so a batch is never stranded — the
// interval is the hard cap on batching delay, so a lone commit always pays
// it, which is what makes a 1ms goserial feel different from a 200µs
// gomvcc. A lone leader sleeps on a timer until leadSpinWindow before the
// deadline and yields the processor (runtime.Gosched) through the rest,
// because sub-quantum timer sleeps overshoot every configured interval.
// (2) Straggler quiescence: once a generation holds two or more records,
// the leader yields in a loop and seals as soon as no new append has
// arrived for strugglerWait — benchmark terminals are closed-loop, so every
// committer that could join the batch is already parked in it, and waiting
// out the rest of the interval would only idle the machine.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects how a commit waits for durability.
type SyncPolicy uint8

const (
	// SyncNone returns immediately after writing through (no durability
	// wait, no batching).
	SyncNone SyncPolicy = iota
	// SyncAsync persists in the background; commits never wait.
	SyncAsync
	// SyncGroup makes each commit wait for the next group flush,
	// emulating batched fsync.
	SyncGroup
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncAsync:
		return "async"
	case SyncGroup:
		return "group"
	default:
		return "?"
	}
}

// flushGen is one group-commit generation. Everyone whose record entered the
// buffer before the seal waits on done; err carries the sink write verdict
// (set before done is closed), so a failed flush aborts every commit it
// covered instead of falsely acknowledging durability. prev chains sealed
// generations in seal order: a generation's writer waits for its
// predecessor's done before writing, which keeps sink bytes in sequence
// order while the successor generation fills concurrently.
type flushGen struct {
	prev     *flushGen     // predecessor in seal order; nil once completed
	buf      []byte        // sealed bytes, owned by the writer after seal
	sealed   chan struct{} // closed at seal time (under Log.mu)
	grown    chan struct{} // closed when the second record arrives
	done     chan struct{} // closed once err holds the write verdict
	err      error
	count    atomic.Uint32 // records in this generation
	isSealed atomic.Bool   // mirror of sealed, for cheap spin-loop checks
	paced    bool          // a backstop leader is pacing this generation
}

// Log is a write-ahead log. A nil *Log is valid and performs no work, so
// engines without durability emulation skip the whole path.
type Log struct {
	policy   SyncPolicy
	interval time.Duration
	w        io.Writer

	mu       sync.Mutex
	buf      []byte
	gen      *flushGen // open generation accumulating appends
	lastSeal time.Time // seal time of the previous generation, guarded by mu
	// failErr is the first sink write error observed. Once set, the log is
	// dead — every subsequent append fails immediately, emulating a crashed
	// device: nothing commits after the crash point.
	failErr error

	stop    chan struct{}
	closed  atomic.Bool
	stopped sync.WaitGroup

	seq     uint64 // last sequence number stamped, guarded by mu
	records atomic.Uint64
	flushes atomic.Uint64
	bytes   atomic.Uint64
}

// Options configures a Log.
type Options struct {
	// Policy is the durability wait mode.
	Policy SyncPolicy
	// GroupInterval is the flush cadence for SyncGroup/SyncAsync.
	// Zero defaults to 200 microseconds.
	GroupInterval time.Duration
	// W receives flushed bytes; nil discards them.
	W io.Writer
	// StartSeq seeds the sequence counter so a log reopened after recovery
	// continues numbering where the surviving prefix left off (ScanRecords
	// requires consecutive sequence numbers across the whole file). Zero
	// starts a fresh log at sequence 1.
	StartSeq uint64
}

// New starts a log with the given options.
func New(opts Options) *Log {
	if opts.GroupInterval <= 0 {
		opts.GroupInterval = 200 * time.Microsecond
	}
	if opts.W == nil {
		opts.W = io.Discard
	}
	l := &Log{
		policy:   opts.Policy,
		interval: opts.GroupInterval,
		w:        opts.W,
		gen:      newGen(nil),
		stop:     make(chan struct{}),
		seq:      opts.StartSeq,
	}
	if l.policy == SyncAsync {
		l.stopped.Add(1)
		go func() {
			defer l.stopped.Done()
			l.flusher()
		}()
	}
	return l
}

func newGen(prev *flushGen) *flushGen {
	return &flushGen{
		prev:   prev,
		sealed: make(chan struct{}),
		grown:  make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// strugglerWait is the quiescence window for early seals: once a generation
// has at least two records and no append has arrived for this long, the
// batch is considered complete and flushes without waiting out the interval.
// It only needs to exceed the inter-append gap of committers racing into the
// same group (single-digit microseconds); the interval remains the upper
// bound whenever traffic keeps trickling in.
const strugglerWait = 20 * time.Microsecond

// Policy returns the log's sync policy.
func (l *Log) Policy() SyncPolicy {
	if l == nil {
		return SyncNone
	}
	return l.policy
}

// recordMagic guards every frame so that replay can tell a torn or corrupt
// tail from a valid record.
const recordMagic = 0xB7

// PayloadHeaderSize is the encoded size of one frame header: magic (1) +
// reserved (3) + sequence (8) + payload length (4) + FNV-32a (4). The crash
// harness uses it to locate payload bytes inside a captured sink image.
const PayloadHeaderSize = 20

// Record is one decoded frame.
type Record struct {
	// Seq is the append sequence number (1-based, consecutive).
	Seq uint64
	// Payload is the application bytes handed to AppendRecord.
	Payload []byte
}

// AppendRecord writes one framed, checksummed payload record and waits for
// durability per the sync policy. It is safe for concurrent use. The
// returned error is the durability verdict: non-nil means the record is not
// known durable and the caller's commit must not be acknowledged. Logs
// written with AppendRecord are replayed with ScanRecords.
func (l *Log) AppendRecord(payload []byte) error {
	if l == nil {
		return nil
	}
	return l.append(payload)
}

// append frames payload and routes it through the sync policy. The
// sequence number is stamped under l.mu so that buffer order and sequence
// order always agree (the checksum covers only the payload, so late
// stamping is safe). SyncNone writes through, and the write's verdict is
// the caller's. Otherwise the frame joins the open generation; under
// SyncGroup the caller then waits for that generation's flush verdict
// (group commit), and under SyncAsync the background flusher carries the
// bytes.
func (l *Log) append(payload []byte) error {
	frame := make([]byte, PayloadHeaderSize+len(payload))
	frame[0] = recordMagic
	binary.BigEndian.PutUint32(frame[12:16], uint32(len(payload)))
	h := fnv.New32a()
	h.Write(payload)
	binary.BigEndian.PutUint32(frame[16:20], h.Sum32())
	copy(frame[PayloadHeaderSize:], payload)

	l.mu.Lock()
	if err := l.failErr; err != nil {
		l.mu.Unlock()
		return err
	}
	l.seq++
	binary.BigEndian.PutUint64(frame[4:12], l.seq)
	if l.policy == SyncNone {
		err := writeAll(l.w, frame)
		l.failErr = err
		l.mu.Unlock()
		if err != nil {
			return err
		}
		l.records.Add(1)
		l.bytes.Add(uint64(len(frame)))
		return nil
	}
	l.buf = append(l.buf, frame...)
	l.records.Add(1)
	if l.policy != SyncGroup {
		l.mu.Unlock()
		return nil
	}

	g := l.gen
	if g.count.Add(1) == 2 {
		close(g.grown) // wake the leader's straggler watch
	}
	deadline := l.lastSeal.Add(l.interval)
	if !time.Now().Before(deadline) {
		// This append crossed the flush deadline: seal inline and become
		// the generation's writer, with no pacing at all.
		l.sealLocked()
		l.mu.Unlock()
		l.complete(g)
		return g.err
	}
	lead := !g.paced
	if lead {
		g.paced = true
	}
	l.mu.Unlock()

	if lead {
		return l.lead(g, deadline)
	}
	// Every sealed generation is completed by whoever sealed it (its
	// leader, an inline seal or Close), so done always closes and err is
	// the real write verdict.
	<-g.done
	return g.err
}

// leadSpinWindow bounds how much of the lone leader's interval wait runs as
// a yield loop instead of a timer sleep. Timer sleeps below roughly two
// milliseconds round up to the scheduler quantum — longer than every
// configured group interval, which is exactly what a lone committer's
// latency is made of — so the final stretch before the deadline is always
// yielded through: a lone committer is typically the only runnable
// goroutine in that regime, making the yields free. Intervals longer than
// the window still sleep through their bulk and only spin the tail.
const leadSpinWindow = 2 * time.Millisecond

// lead runs the generation's backstop leader: its first appender, charged
// with making sure the batch eventually seals. While the leader is alone it
// waits out the interval — a lone commit owes the full flush cadence —
// sleeping through all but the last leadSpinWindow of it and yielding the
// rest, so the seal lands on the deadline instead of a timer quantum past
// it. Once a second record arrives the leader switches to the straggler
// watch: it yields the processor in a loop, and when no new record has
// appeared for strugglerWait — every closed-loop committer is already
// parked in the batch — or the deadline passes, it seals. The watch costs a
// bounded few tens of microseconds per flush, and only when the leader
// actually has company.
func (l *Log) lead(g *flushGen, deadline time.Time) error {
	if g.count.Load() < 2 && !g.isSealed.Load() {
		if rem := time.Until(deadline); rem > leadSpinWindow {
			t := time.NewTimer(rem - leadSpinWindow)
			select {
			case <-g.grown:
				t.Stop()
			case <-g.sealed:
				t.Stop()
			case <-t.C:
			case <-l.stop:
				t.Stop()
			}
		}
		for g.count.Load() < 2 && !g.isSealed.Load() && !l.closed.Load() &&
			time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}
	last := g.count.Load()
	quiet := time.Now()
	for !g.isSealed.Load() && !l.closed.Load() {
		now := time.Now()
		if n := g.count.Load(); n != last {
			last, quiet = n, now
		} else if now.Sub(quiet) >= strugglerWait || !now.Before(deadline) {
			break
		}
		runtime.Gosched()
	}
	if l.sealIfOpen(g) {
		l.complete(g)
	} else {
		<-g.done
	}
	return g.err
}

// sealLocked seals the open generation: it takes ownership of the buffered
// bytes, opens a successor chained behind it, and stamps the seal time that
// paces the next deadline. Callers hold l.mu and must call complete on the
// sealed generation after unlocking.
func (l *Log) sealLocked() {
	g := l.gen
	g.buf = l.buf
	l.buf = nil
	l.gen = newGen(g)
	l.lastSeal = time.Now()
	g.isSealed.Store(true)
	close(g.sealed)
}

// sealIfOpen seals g if it is still the open generation and reports whether
// the caller became its writer.
func (l *Log) sealIfOpen(g *flushGen) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen != g {
		return false
	}
	l.sealLocked()
	return true
}

// complete writes a sealed generation's bytes and publishes the verdict.
// It first waits for the predecessor generation so sink writes happen in
// seal (= sequence) order; the open generation keeps filling meanwhile,
// which is the commit pipeline. failErr is set before done is closed, so a
// successor can never write past a dead device.
func (l *Log) complete(g *flushGen) {
	if g.prev != nil {
		<-g.prev.done
		g.prev = nil
	}
	l.mu.Lock()
	err := l.failErr
	l.mu.Unlock()
	if err == nil && len(g.buf) > 0 {
		if err = writeAll(l.w, g.buf); err != nil {
			l.mu.Lock()
			if l.failErr == nil {
				l.failErr = err
			}
			l.mu.Unlock()
		} else {
			l.bytes.Add(uint64(len(g.buf)))
			l.flushes.Add(1)
		}
	}
	g.err = err
	g.buf = nil
	close(g.done)
}

// writeAll drives w.Write to completion, converting short writes into errors.
func writeAll(w io.Writer, p []byte) error {
	n, err := w.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return err
}

// flusher periodically drains the buffer (SyncAsync only).
func (l *Log) flusher() {
	ticker := time.NewTicker(l.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			l.flushNow()
		case <-l.stop:
			l.flushNow()
			return
		}
	}
}

// flushNow seals the current generation and completes it synchronously.
func (l *Log) flushNow() {
	l.mu.Lock()
	g := l.gen
	l.sealLocked()
	l.mu.Unlock()
	l.complete(g)
}

// Close stops background work after a final flush. Group-commit waiters
// parked in the flushed generation receive that flush's verdict, so a
// commit whose record failed to reach the sink is never acknowledged. It is
// idempotent.
func (l *Log) Close() {
	if l == nil || l.policy == SyncNone {
		return
	}
	if !l.closed.CompareAndSwap(false, true) {
		return
	}
	close(l.stop)
	l.stopped.Wait()
	l.flushNow()
}

// Records returns the number of framed records appended, not counting
// appends the log refused.
func (l *Log) Records() uint64 {
	if l == nil {
		return 0
	}
	return l.records.Load()
}

// Flushes returns the number of non-empty flushes.
func (l *Log) Flushes() uint64 {
	if l == nil {
		return 0
	}
	return l.flushes.Load()
}

// Bytes returns the number of bytes flushed.
func (l *Log) Bytes() uint64 {
	if l == nil {
		return 0
	}
	return l.bytes.Load()
}

// ErrTorn reports that a log ended in a torn (incomplete or checksum-corrupt)
// record, as a crash mid-write leaves behind. ScanRecords returns it together
// with every complete record that precedes the tear.
var ErrTorn = errors.New("wal: torn record at end of log")

// ScanRecords decodes a log written with AppendRecord. It returns every
// complete, checksum-valid record in append order, and the byte length of
// the clean prefix — everything before the first tear. A torn tail — the
// normal residue of a crash between or during sink writes — yields ErrTorn
// alongside the intact prefix; any malformation that cannot be a simple
// tear (bad magic with more data following, out-of-order sequence numbers)
// is a hard error, because it means the prefix itself cannot be trusted.
// Recovery truncates the log file to the clean prefix before reopening it
// for appends, so a later replay never runs into mid-file torn garbage.
func ScanRecords(data []byte) ([]Record, int, error) {
	var recs []Record
	off := 0
	var lastSeq uint64
	for off < len(data) {
		if len(data)-off < PayloadHeaderSize {
			return recs, off, ErrTorn
		}
		hdr := data[off : off+PayloadHeaderSize]
		if hdr[0] != recordMagic {
			return recs, off, fmt.Errorf("wal: bad record magic 0x%02x at offset %d", hdr[0], off)
		}
		seq := binary.BigEndian.Uint64(hdr[4:12])
		plen := int(binary.BigEndian.Uint32(hdr[12:16]))
		sum := binary.BigEndian.Uint32(hdr[16:20])
		if len(data)-off-PayloadHeaderSize < plen {
			return recs, off, ErrTorn
		}
		payload := data[off+PayloadHeaderSize : off+PayloadHeaderSize+plen]
		h := fnv.New32a()
		h.Write(payload)
		if h.Sum32() != sum {
			return recs, off, ErrTorn
		}
		if seq != lastSeq+1 {
			return recs, off, fmt.Errorf("wal: record sequence jump %d -> %d at offset %d", lastSeq, seq, off)
		}
		lastSeq = seq
		recs = append(recs, Record{Seq: seq, Payload: payload})
		off += PayloadHeaderSize + plen
	}
	return recs, off, nil
}
