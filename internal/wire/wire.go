// Package wire is the dependency-free binary protocol umzi-server
// speaks: length-prefixed frames over a byte stream, plus the primitive
// encodings (uvarints, strings, column values, row batches) both the
// server and the client package compose payloads from.
//
// One frame is
//
//	u32 length (big endian, of everything after itself)
//	u8  type   (Frame* constants)
//	payload    (length-1 bytes)
//
// The conversation: the client opens with Hello (magic, protocol
// version, auth token) and the server answers HelloOK or Done with an
// error status. After that the connection is a sequential
// request/response channel — the client sends one request frame (Query,
// Commit, CreateTable, Catalog, Ping) and reads frames until the
// request's terminator. Query streams: RowHeader with the output
// columns, any number of RowBatch frames, then Done. The one frame a
// client may send while a response is in flight is Cancel, which stops
// the server-side cursor; the client then drains to the Done the server
// still owes it, so both ends agree on the frame boundary and the
// connection stays reusable.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"umzi/internal/keyenc"
)

// Magic opens every Hello payload; it doubles as a fail-fast check that
// whatever dialed the port actually speaks this protocol.
const Magic = "UMZW1"

// Version is the protocol version carried in Hello; the server rejects
// versions it does not speak.
const Version = 1

// MaxFrame bounds one frame's length field: a peer announcing more is
// broken or hostile, and the reader fails instead of allocating.
const MaxFrame = 16 << 20

// Frame types. Client-to-server types have the high bit clear,
// server-to-client types have it set.
const (
	FrameHello       byte = 0x01 // magic | u8 version | str token
	FrameQuery       byte = 0x02 // u64 timeout ns (0 = none) | str table | marshaled QuerySpec
	FrameCancel      byte = 0x03 // empty; stop the in-flight query
	FrameCommit      byte = 0x04 // uvarint replica (always 0) | uvarint #tables | per table: str name, uvarint #rows, rows
	FrameCreateTable byte = 0x05 // JSON front.CreateTableRequest
	FrameCatalog     byte = 0x06 // empty; request the table catalog
	FramePing        byte = 0x07 // empty; health check

	FrameHelloOK     byte = 0x81 // str tenant | str server version
	FrameRowHeader   byte = 0x82 // uvarint #cols | str...
	FrameRowBatch    byte = 0x83 // uvarint #rows | per row: uvarint #vals, value...
	FrameDone        byte = 0x84 // u8 status | str message; terminates any request
	FrameCatalogData byte = 0x85 // JSON wildfire.CatalogResponse; terminates Catalog
)

// Done statuses.
const (
	// StatusOK terminates a successful request.
	StatusOK byte = 0
	// StatusError carries the request's error message.
	StatusError byte = 1
	// StatusCanceled acknowledges a Cancel frame (or a server-observed
	// disconnect/deadline) ending a query stream early.
	StatusCanceled byte = 2
	// StatusAdmission reports a write rejected (or timed out queued) by
	// the server's admission control; clients surface it as a typed
	// error so callers can back off and retry.
	StatusAdmission byte = 3
)

// WriteFrame writes one frame. The payload must fit MaxFrame.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte limit", len(payload)+1, MaxFrame)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame, enforcing MaxFrame. The payload is freshly
// allocated and owned by the caller.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var buf []byte
	return ReadFrameInto(r, &buf)
}

// ReadFrameInto reads one frame like ReadFrame, but decodes the payload
// into *buf — growing it as needed — so a streaming reader can recycle
// one buffer across frames. The returned payload aliases *buf and is
// valid only until the next call with the same buffer; Dec's
// byte-string readers copy, so decoded values outlive it.
func ReadFrameInto(r io.Reader, buf *[]byte) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame length %d out of range", n)
	}
	if n > 1 {
		if need := int(n - 1); cap(*buf) < need {
			*buf = make([]byte, need)
		}
		payload = (*buf)[:n-1]
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, nil, fmt.Errorf("wire: short frame: %w", err)
		}
	}
	return hdr[4], payload, nil
}

// ---- Primitive encodings ---------------------------------------------

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendU64 appends v as 8 big-endian bytes.
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendStrings appends a counted list of strings.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendValue appends one column value: a kind byte, then a
// kind-specific payload (8 raw big-endian bytes for the fixed-width
// numerics, one byte for bool, a length-prefixed byte string
// otherwise). The encoding round-trips every value exactly — the
// local-vs-remote equivalence property rests on it.
func AppendValue(b []byte, v keyenc.Value) ([]byte, error) {
	k := v.Kind()
	b = append(b, byte(k))
	switch k {
	case keyenc.KindInvalid:
		// The engine's null: aggregates over empty groups produce it
		// (MIN of nothing). It is a kind byte with no payload.
		return b, nil
	case keyenc.KindInt64:
		return binary.BigEndian.AppendUint64(b, uint64(v.Int())), nil
	case keyenc.KindUint64:
		return binary.BigEndian.AppendUint64(b, v.Uint()), nil
	case keyenc.KindFloat64:
		return binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float())), nil
	case keyenc.KindBool:
		if v.Bool() {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case keyenc.KindString, keyenc.KindBytes:
		p := v.Bytes()
		b = binary.AppendUvarint(b, uint64(len(p)))
		return append(b, p...), nil
	default:
		return nil, fmt.Errorf("wire: cannot encode value of kind %v", k)
	}
}

// AppendRow appends one row as a counted list of values.
func AppendRow(b []byte, row []keyenc.Value) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(row)))
	var err error
	for _, v := range row {
		if b, err = AppendValue(b, v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Dec decodes a payload with a sticky error: call the typed readers in
// sequence and check Err once at the end. Short or malformed input
// never panics; it trips the error and every later read returns a zero
// value.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decoding error.
func (d *Dec) Err() error { return d.err }

// Len returns the number of undecoded bytes.
func (d *Dec) Len() int { return len(d.b) }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Fail records a decoding error from the caller's own validation (first
// error wins, like the built-in readers).
func (d *Dec) Fail(format string, args ...any) { d.fail(format, args...) }

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("short payload reading byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// U64 reads 8 big-endian bytes.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("short payload reading u64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[:8])
	d.b = d.b[8:]
	return v
}

// Uvarint reads one uvarint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("malformed uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Count reads a uvarint bounded by max — list lengths, so a corrupt
// count cannot drive a giant allocation.
func (d *Dec) Count(max int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(max) {
		d.fail("count %d exceeds limit %d", v, max)
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string (copied out of the payload).
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.fail("short payload reading %d bytes", n)
		return nil
	}
	v := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return v
}

// String reads a length-prefixed string.
func (d *Dec) String() string { return string(d.Bytes()) }

// Strings reads a counted list of strings.
func (d *Dec) Strings() []string {
	n := d.Count(1 << 16)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Value reads one column value.
func (d *Dec) Value() keyenc.Value {
	k := keyenc.Kind(d.Byte())
	if d.err != nil {
		return keyenc.Value{}
	}
	switch k {
	case keyenc.KindInvalid:
		return keyenc.Value{} // null; d.err stays nil
	case keyenc.KindInt64:
		return keyenc.I64(int64(d.U64()))
	case keyenc.KindUint64:
		return keyenc.U64(d.U64())
	case keyenc.KindFloat64:
		return keyenc.F64(math.Float64frombits(d.U64()))
	case keyenc.KindBool:
		return keyenc.B(d.Byte() != 0)
	case keyenc.KindString:
		return keyenc.StrBytes(d.Bytes())
	case keyenc.KindBytes:
		return keyenc.Raw(d.Bytes())
	default:
		d.fail("unknown value kind %d", byte(k))
		return keyenc.Value{}
	}
}

// Row reads one counted row.
func (d *Dec) Row() []keyenc.Value {
	n := d.Count(1 << 16)
	if d.err != nil {
		return nil
	}
	out := make([]keyenc.Value, n)
	for i := range out {
		out[i] = d.Value()
	}
	if d.err != nil {
		return nil
	}
	return out
}
