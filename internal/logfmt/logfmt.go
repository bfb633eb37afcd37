// Package logfmt defines the durable layout of the hardware log area in
// persistent memory, shared by the transaction engine (writer) and the
// recovery code (reader).
//
// Layout (all fields little-endian, offsets relative to the log base):
//
//	+0   magic       "SLPMTLOG"
//	+8   sequence    transaction sequence number (increments per Begin)
//	+16  state       0 idle, 1 active, 2 committed
//	+24  mode        1 undo, 2 redo
//	+32  watermark   offset one past the last durably complete record
//	+40  epoch       per-core group-commit epoch counter (0 = per-txn)
//	+48  committedTo offset one past the last committed record (0 = per-txn)
//	+64  records     packed log records
//
// The watermark solves the torn-record problem: records are packed into
// line-sized PM writes, so a crash can persist a record's address word
// without its data. The writer persists record chunks first and then
// advances the watermark (a separate line, ordered after), so recovery
// never parses beyond fully persisted records. The invariant that makes
// the lag safe is that a data line is only persisted after its log
// records are durable INCLUDING the watermark update.
//
// Each record is an address word followed by the logged data:
//
//	addrWord = tag<<48 | dataAddr | sizeCode
//	sizeCode = 1,2,3,4 for 8,16,32,64 data bytes
//	tag      = low 16 bits of the owning transaction's sequence number
//
// The record stream of transaction S ends at the first word that is
// zero, malformed, or carries a tag other than S&0xffff. The tag makes
// parsing robust against the stale bytes of earlier transactions that
// follow the stream when a crash interrupts it between a full-line spill
// and the next terminator sync: stale records carry older sequence tags
// and are rejected. Record application is idempotent, so re-parsing a
// prefix after a crash is safe. Data addresses are limited to 48 bits.
//
// Group commit (epochs). With a commit window above one transaction,
// the stream holds the records of every transaction committed since the
// epoch opened, and durability moves to epoch granularity: the epoch
// field stamps the stream's generation and committedTo splits it into a
// committed prefix [RecordsStart, committedTo) and an open suffix
// [committedTo, watermark). A single header persist at epoch close
// advances committedTo and the state together, standing in for the
// per-transaction commit marker. Recovery treats the committed prefix
// as durable (replayed forward in redo mode) and the open suffix as
// torn (rolled back in reverse in undo mode) — all-or-nothing per
// epoch. Both fields are zero in per-transaction mode, keeping the
// encoded header byte-identical to the pre-epoch layout.
package logfmt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/persistmem/slpmt/internal/mem"
)

// Magic identifies an initialized log area.
const Magic = 0x474f4c544d504c53 // "SLPMTLOG" little-endian

// Header field offsets.
const (
	OffMagic = 0
	OffSeq   = 8
	OffState = 16
	OffMode  = 24
	// OffWatermark holds the offset (from the log base) one past the
	// last record guaranteed durably complete.
	OffWatermark = 32
	// OffEpoch holds the per-core group-commit epoch counter; zero means
	// the stream uses per-transaction commit semantics.
	OffEpoch = 40
	// OffCommittedTo holds the offset one past the last record covered
	// by a durable epoch close; zero means per-transaction semantics.
	OffCommittedTo = 48
	// RecordsStart is the offset of the first record (one cache line in,
	// so header and records never share a PM write).
	RecordsStart = 64
)

// Transaction states.
const (
	StateIdle      = 0
	StateActive    = 1
	StateCommitted = 2
)

// Log modes.
const (
	ModeUndo = 1
	ModeRedo = 2
)

// Header is the decoded log-area header. Epoch and CommittedTo are zero
// for per-transaction streams, so their encoding is byte-identical to
// the pre-epoch layout.
type Header struct {
	Magic       uint64
	Seq         uint64
	State       uint64
	Mode        uint64
	Watermark   uint64
	Epoch       uint64
	CommittedTo uint64
}

// EncodeHeader serializes h into a 64-byte line buffer.
func EncodeHeader(h Header) [mem.LineSize]byte {
	var b [mem.LineSize]byte
	binary.LittleEndian.PutUint64(b[OffMagic:], h.Magic)
	binary.LittleEndian.PutUint64(b[OffSeq:], h.Seq)
	binary.LittleEndian.PutUint64(b[OffState:], h.State)
	binary.LittleEndian.PutUint64(b[OffMode:], h.Mode)
	binary.LittleEndian.PutUint64(b[OffWatermark:], h.Watermark)
	binary.LittleEndian.PutUint64(b[OffEpoch:], h.Epoch)
	binary.LittleEndian.PutUint64(b[OffCommittedTo:], h.CommittedTo)
	return b
}

// DecodeHeader parses a log-area header from raw bytes (at least
// RecordsStart long).
func DecodeHeader(raw []byte) Header {
	return Header{
		Magic:       binary.LittleEndian.Uint64(raw[OffMagic:]),
		Seq:         binary.LittleEndian.Uint64(raw[OffSeq:]),
		State:       binary.LittleEndian.Uint64(raw[OffState:]),
		Mode:        binary.LittleEndian.Uint64(raw[OffMode:]),
		Watermark:   binary.LittleEndian.Uint64(raw[OffWatermark:]),
		Epoch:       binary.LittleEndian.Uint64(raw[OffEpoch:]),
		CommittedTo: binary.LittleEndian.Uint64(raw[OffCommittedTo:]),
	}
}

// SizeCode returns the address-word size code for a record data length,
// or 0 if the length is not a legal record size.
func SizeCode(n int) uint64 {
	switch n {
	case 8:
		return 1
	case 16:
		return 2
	case 32:
		return 3
	case 64:
		return 4
	default:
		return 0
	}
}

// CodeSize is the inverse of SizeCode; returns 0 for invalid codes.
func CodeSize(code uint64) int {
	switch code {
	case 1:
		return 8
	case 2:
		return 16
	case 3:
		return 32
	case 4:
		return 64
	default:
		return 0
	}
}

// AddrBits is the width of record data addresses; the bits above carry
// the transaction tag.
const AddrBits = 48

// BoundaryAddr is the sentinel data address of a transaction-boundary
// record. Group-commit streams open every transaction with one: an
// ordinary 8-byte record at this address whose payload is the
// transaction's cluster-global sequence number. Real data addresses
// never reach the top of the 48-bit window, so readers recognize the
// sentinel and must skip it when applying records; recovery uses it to
// split an epoch stream into per-transaction units and to order units
// across cores exactly (interleaved cross-core write sets roll back in
// reverse global order, replay forward in global order). Absent in
// per-transaction (W = 1) streams, whose encoding stays unchanged.
const BoundaryAddr mem.Addr = (1 << AddrBits) - WordSizeBytes

// WordSizeBytes mirrors mem.WordSize without a second import point for
// readers of the format spec.
const WordSizeBytes = 8

// IsBoundary reports whether a decoded record is a transaction-boundary
// sentinel.
func IsBoundary(r Record) bool { return r.Addr == BoundaryAddr }

// BoundarySeq returns the cluster-global sequence number carried by a
// boundary record.
func BoundarySeq(r Record) uint64 { return binary.LittleEndian.Uint64(r.Data) }

// Tag derives the record tag from a transaction sequence number.
func Tag(seq uint64) uint16 { return uint16(seq) }

// EncodeAddrWord packs a record's data address, length and transaction
// tag into its address word. addr must be 8-byte aligned, below 2^48,
// and n a legal record size.
func EncodeAddrWord(addr mem.Addr, n int, tag uint16) uint64 {
	code := SizeCode(n)
	if code == 0 {
		panic(fmt.Sprintf("logfmt: invalid record size %d", n))
	}
	if !mem.AlignedTo(addr, 8) {
		panic(fmt.Sprintf("logfmt: unaligned record address %#x", addr))
	}
	if uint64(addr) >= 1<<AddrBits {
		panic(fmt.Sprintf("logfmt: record address %#x exceeds %d bits", addr, AddrBits))
	}
	return uint64(tag)<<AddrBits | uint64(addr) | code
}

// DecodeAddrWord unpacks an address word. ok is false for the zero
// terminator or a malformed word.
func DecodeAddrWord(w uint64) (addr mem.Addr, n int, tag uint16, ok bool) {
	if w == 0 {
		return 0, 0, 0, false
	}
	n = CodeSize(w & 7)
	if n == 0 {
		return 0, 0, 0, false
	}
	tag = uint16(w >> AddrBits)
	addr = mem.Addr(w&^7) & (1<<AddrBits - 1)
	return addr, n, tag, true
}

// Reader reads bytes of persistent memory: a device's current contents
// or a crash image.
type Reader interface {
	Read(addr uint64, p []byte)
}

// ReadPrefix copies the first end bytes of the log area at base out of
// r: the header line plus the record prefix a bound from the header or
// the writer delimits, not the whole area of size bytes. An end outside
// [RecordsStart, size] is a corrupt bound; then only the header line is
// copied, and the parsers' bound checks reject it with ErrCorrupt.
func ReadPrefix(r Reader, base mem.Addr, size, end uint64) []byte {
	if end > size || end < RecordsStart {
		end = RecordsStart
	}
	raw := make([]byte, end)
	r.Read(base, raw)
	return raw
}

// ReadToWatermark reads the log area's header line, then the prefix up
// to the header's watermark: everything ParseRecords looks at.
func ReadToWatermark(r Reader, base mem.Addr, size uint64) []byte {
	var line [RecordsStart]byte
	r.Read(base, line[:])
	return ReadPrefix(r, base, size, DecodeHeader(line[:]).Watermark)
}

// Record is a decoded log record.
type Record struct {
	Addr mem.Addr
	Data []byte
}

// ErrCorrupt reports a structurally invalid record stream.
var ErrCorrupt = errors.New("logfmt: corrupt record stream")

// ParseRecords decodes the record stream of the transaction with
// sequence seq from raw (the bytes of the log area starting at its
// base), bounded by the header's watermark. The stream additionally
// ends at the first zero, malformed, or foreign-tagged word (stale
// bytes of earlier transactions below a conservative watermark). The
// returned slices alias raw.
func ParseRecords(raw []byte, seq uint64) ([]Record, error) {
	hdr := DecodeHeader(raw)
	limit := int(hdr.Watermark)
	if limit > len(raw) {
		return nil, fmt.Errorf("%w: watermark %d beyond log area", ErrCorrupt, limit)
	}
	want := Tag(seq)
	var out []Record
	off := RecordsStart
	for off+8 <= limit {
		w := binary.LittleEndian.Uint64(raw[off:])
		addr, n, tag, ok := DecodeAddrWord(w)
		if !ok || tag != want {
			return out, nil
		}
		off += 8
		if off+n > limit {
			return out, fmt.Errorf("%w: record crosses watermark at offset %d", ErrCorrupt, off)
		}
		out = append(out, Record{Addr: addr, Data: raw[off : off+n]})
		off += n
	}
	return out, nil
}

// Group descriptor. Multi-core group commit gets its atomic commit
// point from a single reserved PM line (the top line of the root
// directory): one persist of the descriptor commits every core's open
// epoch at once. The line packs one entry per core:
//
//	entry c (8 bytes at offset 8*c): epoch<<32 | boundary
//
// where epoch is the core's epoch counter at the close and boundary the
// stream offset one past its last committed record (the in-flight
// suffix of a transaction running through the close starts there). A
// zeroed line — PM's initial state — means no group has committed.
// Recovery decides whether a core's epoch e committed by comparing e
// against the descriptor entry; the per-core header is written only
// after the descriptor, so a crash between the two still recovers the
// group. Capacity is eight cores (one line).

// MaxGroupCores is the core capacity of the one-line group descriptor.
const MaxGroupCores = LineBytes / 8

// LineBytes mirrors mem.LineSize for the format spec.
const LineBytes = 64

// GroupEntry is one core's slot in the group descriptor.
type GroupEntry struct {
	Epoch    uint32
	Boundary uint32
}

// EncodeGroupDesc serializes per-core entries into the descriptor line.
func EncodeGroupDesc(vec []GroupEntry) [LineBytes]byte {
	var b [LineBytes]byte
	for c, e := range vec {
		binary.LittleEndian.PutUint64(b[8*c:], uint64(e.Epoch)<<32|uint64(e.Boundary))
	}
	return b
}

// DecodeGroupDesc parses a descriptor line into per-core entries.
func DecodeGroupDesc(raw []byte) [MaxGroupCores]GroupEntry {
	var vec [MaxGroupCores]GroupEntry
	for c := range vec {
		w := binary.LittleEndian.Uint64(raw[8*c:])
		vec[c] = GroupEntry{Epoch: uint32(w >> 32), Boundary: uint32(w)}
	}
	return vec
}

// ParseRegion decodes the record stream in [from, to) of raw regardless
// of transaction tag — an epoch stream interleaves the records of every
// transaction in the window, so the region bounds from the header
// (committedTo, watermark) are the only trustworthy delimiters. The
// stream still ends early at the first zero or malformed word, and a
// record crossing the region end is an error. The returned slices alias
// raw.
func ParseRegion(raw []byte, from, to uint64) ([]Record, error) {
	if from < RecordsStart {
		from = RecordsStart
	}
	if to > uint64(len(raw)) {
		return nil, fmt.Errorf("%w: region end %d beyond log area", ErrCorrupt, to)
	}
	var out []Record
	off := int(from)
	limit := int(to)
	for off+8 <= limit {
		w := binary.LittleEndian.Uint64(raw[off:])
		addr, n, _, ok := DecodeAddrWord(w)
		if !ok {
			return out, nil
		}
		off += 8
		if off+n > limit {
			return out, fmt.Errorf("%w: record crosses region end at offset %d", ErrCorrupt, off)
		}
		out = append(out, Record{Addr: addr, Data: raw[off : off+n]})
		off += n
	}
	return out, nil
}
