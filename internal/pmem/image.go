package pmem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the granule of an Image: 4 KiB, the host page size, so a
// page is one allocation and one copy.
const PageSize = 4096

const (
	pageShift = 12
	pageMask  = PageSize - 1
)

// page is one 4 KiB page of an Image.
type page [PageSize]byte

// Image is a sparse, paged byte image of the PM address space. It holds
// every byte array of the simulator: the durable image the per-socket
// devices share, the machine's volatile (functional) image, and crash
// snapshots, on which recovery operates.
//
// Pages are allocated on first write; an absent page reads as zeros, so
// building a machine costs the page table, not the capacity. Pages are
// shared copy-on-write between an image and its clones: Clone copies
// the page table and clears the source's ownership bits, and whichever
// side writes a shared page first takes a private copy of it. An image
// writes in place only to pages it owns, so no write through one image
// is ever visible through another.
//
// Accesses may cross page boundaries. Out-of-range accesses panic. Not
// safe for concurrent use; an image and its clones may be used from
// different goroutines only if neither is written.
type Image struct {
	size  uint64
	pages []*page // nil: absent, reads as zeros
	owned []bool  // owned[i]: pages[i] is private to this image
}

// NewImage returns an all-zero image of size bytes. It allocates only
// the page table.
func NewImage(size uint64) *Image {
	n := (size + pageMask) >> pageShift
	return &Image{size: size, pages: make([]*page, n), owned: make([]bool, n)}
}

// Size returns the image's capacity in bytes.
func (img *Image) Size() uint64 { return img.size }

// Clone returns a copy-on-write snapshot of the image: O(page slots),
// no page data is copied. Afterwards the two images share every page
// and neither owns one, so the first write to a page on either side
// copies it.
func (img *Image) Clone() *Image {
	c := &Image{size: img.size, pages: make([]*page, len(img.pages)), owned: make([]bool, len(img.owned))}
	copy(c.pages, img.pages)
	clear(img.owned)
	return c
}

// check panics unless [addr, addr+n) lies inside the image.
//
//slpmt:noalloc
func (img *Image) check(op string, addr uint64, n int) {
	if uint64(n) > img.size || addr > img.size-uint64(n) {
		img.panicOutOfRange(op, addr, n)
	}
}

// panicOutOfRange keeps the message formatting (which allocates) out of
// the annotated access paths.
//
//go:noinline
func (img *Image) panicOutOfRange(op string, addr uint64, n int) {
	panic(fmt.Sprintf("pmem: image %s out of range: addr=%#x n=%d size=%#x", op, addr, n, img.size))
}

// writable returns page i for an in-place write, taking a private copy
// first if the image does not own it.
//
//slpmt:noalloc
func (img *Image) writable(i uint64) *page {
	if img.owned[i] {
		return img.pages[i]
	}
	return img.own(i)
}

// own makes page i private to the image: a fresh zero page if it was
// absent, else a copy of the shared one. It is the only place an image
// allocates after NewImage/Clone, which is why it sits outside the
// //slpmt:noalloc write paths: a write allocates only the first time it
// touches a page.
//
//go:noinline
func (img *Image) own(i uint64) *page {
	pg := new(page)
	if old := img.pages[i]; old != nil {
		*pg = *old
	}
	img.pages[i] = pg
	img.owned[i] = true
	return pg
}

// Read copies len(p) bytes at addr into p.
//
//slpmt:noalloc
func (img *Image) Read(addr uint64, p []byte) {
	img.check("read", addr, len(p))
	for len(p) > 0 {
		off := addr & pageMask
		var n int
		if pg := img.pages[addr>>pageShift]; pg != nil {
			n = copy(p, pg[off:])
		} else {
			n = min(len(p), PageSize-int(off))
			clear(p[:n])
		}
		p = p[n:]
		addr += uint64(n)
	}
}

// Write copies p into the image at addr.
//
//slpmt:noalloc
func (img *Image) Write(addr uint64, p []byte) {
	img.check("write", addr, len(p))
	for len(p) > 0 {
		n := copy(img.writable(addr >> pageShift)[addr&pageMask:], p)
		p = p[n:]
		addr += uint64(n)
	}
}

// ReadU64 reads a little-endian uint64 at addr.
//
//slpmt:noalloc
func (img *Image) ReadU64(addr uint64) uint64 {
	off := addr & pageMask
	if off > PageSize-8 {
		var b [8]byte
		img.Read(addr, b[:])
		return binary.LittleEndian.Uint64(b[:])
	}
	img.check("read", addr, 8)
	pg := img.pages[addr>>pageShift]
	if pg == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(pg[off:])
}

// WriteU64 writes a little-endian uint64 at addr.
//
//slpmt:noalloc
func (img *Image) WriteU64(addr uint64, v uint64) {
	off := addr & pageMask
	if off > PageSize-8 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		img.Write(addr, b[:])
		return
	}
	img.check("write", addr, 8)
	binary.LittleEndian.PutUint64(img.writable(addr >> pageShift)[off:], v)
}
