package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanKind names the layer boundary a span brackets.
type spanKind uint8

const (
	spanTxn      spanKind = iota // root: intended start to outcome recorded (loadgen)
	spanQueue                    // scheduled arrival to client pick-up (loadgen)
	spanBegin                    // Conn.Begin / Conn.BeginReadOnly (dbdriver)
	spanExec                     // Procedure.Fn: control code and statements (sqldb)
	spanCommit                   // Conn.Commit (wal)
	spanRollback                 // Conn.Rollback after a failed Fn (sqldb/txn)
	spanBackoff                  // retry backoff sleep (sqldb/txn)
	spanRecord                   // stats.Recorder.Record (stats)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"txn", "queue", "begin", "exec", "commit", "rollback", "backoff", "record"}

// span is one timed interval. Times are nanoseconds since the run's base.
// Spans of one transaction share txn; parent indexes the parent span in the
// same tracer (-1 for a root).
type span struct {
	txn    uint64
	parent int32
	kind   spanKind
	start  int64
	end    int64
}

// tracer keeps one client's spans in memory until the run ends, in
// fixed-size chunks so that recording never copies what it already holds.
// A nil *tracer records nothing, so the untraced path pays one nil check
// per boundary.
type tracer struct {
	base   time.Time
	chunks [][]span
	n      int32
}

const chunkBits = 16

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// at returns span i.
func (t *tracer) at(i int32) *span { return &t.chunks[i>>chunkBits][i&(1<<chunkBits-1)] }

// open starts a span at the given offset and returns its index.
func (t *tracer) open(kind spanKind, txn uint64, parent int32, start int64) int32 {
	i := t.n
	if int(i>>chunkBits) == len(t.chunks) {
		t.chunks = append(t.chunks, make([]span, 1<<chunkBits))
	}
	*t.at(i) = span{txn: txn, parent: parent, kind: kind, start: start}
	t.n++
	return i
}

// close ends span i now.
func (t *tracer) close(i int32) { t.at(i).end = t.now() }

// selfTime returns the part of parent's interval that no child covers:
// its duration minus the union of the children's intervals clipped to it.
// children is reordered.
func selfTime(parent span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].start < children[j].start })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1) // current merged interval; empty when curHi < curLo
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi <= lo {
			continue
		}
		if lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = lo, hi
		} else if hi > curHi {
			curHi = hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.end - parent.start - covered
}

// spanStats aggregates a traced run's spans per kind, plus the loadgen's
// self time per transaction (root span minus its children).
type spanStats struct {
	dur  [numSpanKinds]hist
	self hist
}

func summarize(tracers []*tracer) *spanStats {
	st := &spanStats{}
	var kids []span
	for _, t := range tracers {
		// Children are appended after their root and before the next root,
		// so one pass groups each transaction's spans.
		var root *span
		flush := func() {
			if root != nil {
				st.self.add(time.Duration(selfTime(*root, kids)))
			}
			kids = kids[:0]
		}
		for i := int32(0); i < t.n; i++ {
			s := t.at(i)
			st.dur[s.kind].add(time.Duration(s.end - s.start))
			if s.parent < 0 {
				flush()
				root = s
			} else {
				kids = append(kids, *s)
			}
		}
		flush()
	}
	return st
}

// writeSpans writes every span as one tab-separated line.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "txn\tspan\tparent\tname\tstart_ns\tend_ns")
	for _, t := range tracers {
		for i := int32(0); i < t.n; i++ {
			s := t.at(i)
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.txn, i, s.parent, spanNames[s.kind], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
