package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// On-disk WAL framing.  The file opens with an 8-byte magic; each
// record is
//
//	uint32  payload length (little endian)
//	uint32  CRC32C of the payload (Castagnoli)
//	payload: [1B format version][1B record type][body]
//
// Bodies are uvarint/length-prefixed-string encoded.  Everything about
// the framing is designed for prefix-truncation recovery: a reader can
// always decide "valid record here" or "corrupt/torn from here on"
// without trusting anything beyond the bytes it has.

const (
	walMagic = "EPCQWAL0" // 8 bytes, includes the file-format version

	recFormat = 1 // payload format version inside each record

	// maxRecordLen bounds a record's payload so a corrupted length
	// field cannot cause a giant allocation: the largest legitimate
	// record is a create/append batch, itself bounded by the serving
	// layer's request cap (64 MiB) plus framing slack.
	maxRecordLen = 65<<20 + 1024
)

// Record types.
const (
	// recCreate logs a structure creation: name, signature spec, and
	// the initial facts text.
	recCreate = byte(1)
	// recAppend logs one fact-append batch: name, idempotency batch id
	// (may be empty), the structure version before the apply, and the
	// facts text.
	recAppend = byte(2)
)

// castagnoli is the CRC32C table shared by WAL records and snapshots.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RelSpec names one relation of a logged signature (mirrors the serving
// layer's wire shape so create records replay exactly).
type RelSpec struct {
	Name  string
	Arity int
}

// Record is one decoded WAL record.
type Record struct {
	// Type is recCreate or recAppend (exported for telemetry; consumers
	// switch on the populated fields instead).
	Type byte
	// Name is the structure the record concerns.
	Name string
	// Sig is the creation signature spec (recCreate only; empty means
	// "infer from facts", exactly as at creation time).
	Sig []RelSpec
	// BatchID is the append batch's idempotency id ("" = none).
	BatchID string
	// PreVersion is the structure's version immediately before the
	// batch applied (recAppend only) — the replay-chain check.
	PreVersion uint64
	// Facts is the batch's (or creation's) fact text.
	Facts string
}

// enc is a tiny append-only encoder for record bodies.
type enc struct{ b []byte }

func (e *enc) u64(v uint64)   { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) str(s string)   { e.u64(uint64(len(s))); e.b = append(e.b, s...) }
func (e *enc) byte1(b byte)   { e.b = append(e.b, b) }
func (e *enc) raw(p []byte)   { e.b = append(e.b, p...) }
func (e *enc) u32le(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

// dec is the matching sticky-error decoder.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("wal: truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("wal: truncated string (want %d bytes, have %d)", n, len(d.b))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) byte1() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("wal: truncated byte")
		return 0
	}
	b := d.b[0]
	d.b = d.b[1:]
	return b
}

// appendRecord frames rec onto dst: length, CRC32C, payload.
func appendRecord(dst []byte, rec Record) []byte {
	var body enc
	body.byte1(recFormat)
	body.byte1(rec.Type)
	body.str(rec.Name)
	switch rec.Type {
	case recCreate:
		body.u64(uint64(len(rec.Sig)))
		for _, rs := range rec.Sig {
			body.str(rs.Name)
			body.u64(uint64(rs.Arity))
		}
		body.str(rec.Facts)
	case recAppend:
		body.str(rec.BatchID)
		body.u64(rec.PreVersion)
		body.str(rec.Facts)
	}
	var frame enc
	frame.u32le(uint32(len(body.b)))
	frame.u32le(crc32.Checksum(body.b, castagnoli))
	frame.raw(body.b)
	return append(dst, frame.b...)
}

// decodeRecord parses one framed record at the start of buf, returning
// the record and the number of bytes consumed.  Any framing or body
// violation — short frame, oversized length, CRC mismatch, unknown
// format/type, truncated body — returns an error; callers treat that
// as "corrupt or torn from here on".
func decodeRecord(buf []byte) (Record, int, error) {
	if len(buf) < 8 {
		return Record{}, 0, fmt.Errorf("wal: short frame header (%d bytes)", len(buf))
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	sum := binary.LittleEndian.Uint32(buf[4:8])
	if n > maxRecordLen {
		return Record{}, 0, fmt.Errorf("wal: record length %d exceeds cap", n)
	}
	if uint64(len(buf)) < 8+uint64(n) {
		return Record{}, 0, fmt.Errorf("wal: torn record (want %d payload bytes, have %d)", n, len(buf)-8)
	}
	payload := buf[8 : 8+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return Record{}, 0, fmt.Errorf("wal: record checksum mismatch")
	}
	d := dec{b: payload}
	if f := d.byte1(); d.err == nil && f != recFormat {
		return Record{}, 0, fmt.Errorf("wal: unknown record format %d", f)
	}
	rec := Record{Type: d.byte1()}
	rec.Name = d.str()
	switch rec.Type {
	case recCreate:
		nr := d.u64()
		if d.err == nil && nr > uint64(len(payload)) {
			return Record{}, 0, fmt.Errorf("wal: implausible signature size %d", nr)
		}
		for i := uint64(0); d.err == nil && i < nr; i++ {
			name := d.str()
			arity := d.u64()
			rec.Sig = append(rec.Sig, RelSpec{Name: name, Arity: int(arity)})
		}
		rec.Facts = d.str()
	case recAppend:
		rec.BatchID = d.str()
		rec.PreVersion = d.u64()
		rec.Facts = d.str()
	default:
		return Record{}, 0, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
	if d.err != nil {
		return Record{}, 0, d.err
	}
	if len(d.b) != 0 {
		return Record{}, 0, fmt.Errorf("wal: %d trailing payload bytes", len(d.b))
	}
	return rec, 8 + int(n), nil
}
