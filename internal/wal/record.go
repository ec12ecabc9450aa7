// Commit record codec. Every record a log holds is one commit record: the
// committing transaction's id, followed by the row images the commit leaves
// behind, framed by AppendRecord and replayed with ScanRecords. A RAM engine
// has nothing to replay and logs the bare nine-byte form; a disk-resident
// engine logs every written row, so the log alone rebuilds its tables, and
// catalog changes ride the same record under SystemTxnID. Recovery is one
// scan: every whole record is a winner, in log order.
//
// Layout, little-endian:
//
//	kind (1) = 2, txn id (8)                      — the zero-row form
//	... then, with rows: count (4), and per row
//	    table (4), row (8), image length (4), image
//
// An image of length zero deletes the row. Decode never panics on malformed
// input — the frame checksum already rejects accidental corruption, so a
// decode failure means the log prefix cannot be trusted and is surfaced as a
// hard error — and it accepts only the bytes EncodeCommitRows produces, so
// every decoded record re-encodes to its input.
package wal

import (
	"encoding/binary"
	"fmt"
)

// commitKind is the leading byte of every record payload.
const commitKind = 2

// SystemTxnID is the transaction id engine-internal records (catalog
// changes) are logged under; no user transaction is ever given it.
const SystemTxnID uint64 = 0

// rowHeaderSize is the fixed part of one encoded row: table, row, length.
const rowHeaderSize = 4 + 8 + 4

// RowImage is one row a commit leaves behind.
type RowImage struct {
	// Table is the engine's stable id for the row's table.
	Table uint32
	// Row is the row's id within the table.
	Row int64
	// Image is the encoded row; empty means the commit deleted it.
	Image []byte
}

// CommitRec is one decoded commit record.
type CommitRec struct {
	TxnID uint64
	// Rows holds the row images in commit order; their Image slices alias
	// the decoded payload.
	Rows []RowImage
}

// EncodeCommit encodes the bare commit record of a transaction that logs no
// rows, as RAM engines do: the nine-byte kind-and-id form. It stays small
// enough to inline, so a caller that does not retain the payload keeps it
// off the heap.
func EncodeCommit(txnID uint64) []byte {
	b := make([]byte, 1+8)
	b[0] = commitKind
	binary.LittleEndian.PutUint64(b[1:], txnID)
	return b
}

// EncodeCommitRows encodes a commit record carrying rows. Without rows it
// is EncodeCommit's bare form.
func EncodeCommitRows(txnID uint64, rows []RowImage) []byte {
	if len(rows) == 0 {
		return EncodeCommit(txnID)
	}
	n := 1 + 8 + 4
	for _, r := range rows {
		n += rowHeaderSize + len(r.Image)
	}
	b := make([]byte, 0, n)
	b = append(b, commitKind)
	b = binary.LittleEndian.AppendUint64(b, txnID)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rows)))
	for _, r := range rows {
		b = binary.LittleEndian.AppendUint32(b, r.Table)
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Row))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Image)))
		b = append(b, r.Image...)
	}
	return b
}

// DecodeCommit decodes one payload produced by EncodeCommitRows. Malformed
// input, including trailing bytes and an explicit row count of zero,
// returns an error, never panics.
func DecodeCommit(p []byte) (CommitRec, error) {
	var rec CommitRec
	if len(p) < 1+8 {
		return rec, fmt.Errorf("wal: commit record is %d bytes, want at least 9", len(p))
	}
	if p[0] != commitKind {
		return rec, fmt.Errorf("wal: unknown record kind %d", p[0])
	}
	rec.TxnID = binary.LittleEndian.Uint64(p[1:9])
	body := p[9:]
	if len(body) == 0 {
		return rec, nil
	}
	if len(body) < 4 {
		return rec, fmt.Errorf("wal: %d trailing bytes after commit record", len(body))
	}
	n := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if n == 0 || uint64(n) > uint64(len(body)/rowHeaderSize) {
		return rec, fmt.Errorf("wal: commit record claims %d rows in %d bytes", n, len(body))
	}
	rec.Rows = make([]RowImage, n)
	for i := range rec.Rows {
		if len(body) < rowHeaderSize {
			return rec, fmt.Errorf("wal: commit record truncated at row %d", i)
		}
		r := &rec.Rows[i]
		r.Table = binary.LittleEndian.Uint32(body)
		r.Row = int64(binary.LittleEndian.Uint64(body[4:]))
		ln := binary.LittleEndian.Uint32(body[12:])
		body = body[rowHeaderSize:]
		if uint64(ln) > uint64(len(body)) {
			return rec, fmt.Errorf("wal: row %d image length %d exceeds %d remaining bytes", i, ln, len(body))
		}
		if ln > 0 {
			r.Image = body[:ln:ln]
		}
		body = body[ln:]
	}
	if len(body) != 0 {
		return rec, fmt.Errorf("wal: %d trailing bytes after commit record", len(body))
	}
	return rec, nil
}
