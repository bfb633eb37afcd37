package logfmt

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"github.com/persistmem/slpmt/internal/mem"
)

func TestHeaderRoundtrip(t *testing.T) {
	h := Header{Magic: Magic, Seq: 42, State: StateActive, Mode: ModeUndo, Watermark: 4096}
	line := EncodeHeader(h)
	got := DecodeHeader(line[:])
	if got != h {
		t.Errorf("roundtrip: %+v != %+v", got, h)
	}
}

func TestAddrWordRoundtrip(t *testing.T) {
	f := func(addr32 uint32, sizeIdx uint8, tag uint16) bool {
		addr := mem.Addr(addr32) &^ 7
		n := 8 << (sizeIdx % 4)
		if !mem.AlignedTo(addr, uint64(n)) {
			addr = mem.AlignUp(addr, uint64(n))
		}
		w := EncodeAddrWord(addr, n, tag)
		ga, gn, gt, ok := DecodeAddrWord(w)
		return ok && ga == addr && gn == n && gt == tag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, _, _, ok := DecodeAddrWord(0); ok {
		t.Error("zero word decoded")
	}
	if _, _, _, ok := DecodeAddrWord(0x1000); ok { // code 0
		t.Error("code-0 word decoded")
	}
	if _, _, _, ok := DecodeAddrWord(0x1005); ok { // code 5
		t.Error("code-5 word decoded")
	}
}

// buildLog assembles a log area with the given records for seq.
func buildLog(seq uint64, recs []Record, watermark uint64) []byte {
	raw := make([]byte, 8<<10)
	hdr := EncodeHeader(Header{Magic: Magic, Seq: seq, State: StateActive, Mode: ModeUndo, Watermark: watermark})
	copy(raw, hdr[:])
	off := RecordsStart
	for _, r := range recs {
		binary.LittleEndian.PutUint64(raw[off:], EncodeAddrWord(r.Addr, len(r.Data), Tag(seq)))
		off += 8
		copy(raw[off:], r.Data)
		off += len(r.Data)
	}
	return raw
}

func TestParseRecords(t *testing.T) {
	recs := []Record{
		{Addr: 0x1000, Data: make([]byte, 8)},
		{Addr: 0x2000, Data: make([]byte, 64)},
		{Addr: 0x3000, Data: make([]byte, 16)},
	}
	mark := uint64(RecordsStart + 16 + 72 + 24)
	raw := buildLog(7, recs, mark)
	got, err := ParseRecords(raw, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d records, want 3", len(got))
	}
	for i := range recs {
		if got[i].Addr != recs[i].Addr || len(got[i].Data) != len(recs[i].Data) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

// TestParseStopsAtWatermark: records beyond the watermark are invisible
// — the torn-record defence.
func TestParseStopsAtWatermark(t *testing.T) {
	recs := []Record{
		{Addr: 0x1000, Data: make([]byte, 8)},
		{Addr: 0x2000, Data: make([]byte, 8)},
	}
	raw := buildLog(7, recs, uint64(RecordsStart+16)) // only the first is covered
	got, err := ParseRecords(raw, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("parsed %d records, want 1 (watermark)", len(got))
	}
}

// TestParseRejectsStaleTags: records of an earlier transaction below a
// conservative watermark are not attributed to the current one.
func TestParseRejectsStaleTags(t *testing.T) {
	recs := []Record{{Addr: 0x1000, Data: make([]byte, 8)}}
	raw := buildLog(7, recs, uint64(RecordsStart+16))
	// Header claims seq 8 (new transaction), same watermark.
	hdr := EncodeHeader(Header{Magic: Magic, Seq: 8, State: StateActive, Mode: ModeUndo, Watermark: uint64(RecordsStart + 16)})
	copy(raw, hdr[:])
	got, err := ParseRecords(raw, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("stale-tag record attributed to new transaction")
	}
}

// TestParseTornRecord: an address word inside the watermark whose data
// crosses it is reported as corruption, never silently applied.
func TestParseTornRecord(t *testing.T) {
	recs := []Record{{Addr: 0x1000, Data: make([]byte, 64)}}
	raw := buildLog(7, recs, uint64(RecordsStart+16)) // watermark cuts the data
	_, err := ParseRecords(raw, 7)
	if err == nil {
		t.Fatal("torn record not detected")
	}
}

func TestParseWatermarkBounds(t *testing.T) {
	raw := buildLog(7, nil, uint64(1<<30))
	if _, err := ParseRecords(raw, 7); err == nil {
		t.Fatal("absurd watermark accepted")
	}
}

func TestSizeCodes(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		if CodeSize(SizeCode(n)) != n {
			t.Errorf("size %d roundtrip failed", n)
		}
	}
	if SizeCode(12) != 0 || CodeSize(0) != 0 || CodeSize(7) != 0 {
		t.Error("invalid sizes not rejected")
	}
}

// logArea is a Reader over a log area mapped at base.
type logArea struct {
	base mem.Addr
	raw  []byte
}

func (a logArea) Read(addr uint64, p []byte) { copy(p, a.raw[addr-a.base:]) }

// TestReadToWatermark: the bounded read copies exactly the header plus
// the watermark's prefix, and parses to the same records as the whole
// area; a corrupt watermark copies only the header and still fails to
// parse.
func TestReadToWatermark(t *testing.T) {
	recs := []Record{
		{Addr: 0x1000, Data: make([]byte, 8)},
		{Addr: 0x2000, Data: make([]byte, 16)},
	}
	mark := uint64(RecordsStart + 16 + 24)
	area := logArea{base: 0x10000, raw: buildLog(7, recs, mark)}
	size := uint64(len(area.raw))
	raw := ReadToWatermark(area, area.base, size)
	if uint64(len(raw)) != mark {
		t.Fatalf("read %d bytes, want the %d up to the watermark", len(raw), mark)
	}
	got, err := ParseRecords(raw, 7)
	want, _ := ParseRecords(area.raw, 7)
	if err != nil || len(got) != len(want) || len(got) != 2 {
		t.Fatalf("bounded read parsed %d records (err %v), whole area %d", len(got), err, len(want))
	}

	bad := logArea{base: area.base, raw: buildLog(7, recs, size+8)}
	raw = ReadToWatermark(bad, bad.base, size)
	if len(raw) != RecordsStart {
		t.Errorf("corrupt watermark read %d bytes, want the header only", len(raw))
	}
	if _, err := ParseRecords(raw, 7); err == nil {
		t.Error("corrupt watermark accepted after a bounded read")
	}
}
