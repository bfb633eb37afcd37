// Package pmem is a miniature of the real pmem package's paged image —
// a page table with copy-on-write ownership, the first-write helper
// that owns a page, and the two ways a write lands in a page (a copy
// into a page slice, an element store through a page pointer) — so the
// obsonly fixtures can check that an image write still resolves as a
// simulation-state store when the image is a page table rather than a
// []byte field.
package pmem

// PageSize is the page granule.
const PageSize = 4096

type page [PageSize]byte

// Image is a sparse, paged byte image (miniature).
type Image struct {
	pages []*page
	owned []bool
}

// own gives the image a private copy of page i.
func (img *Image) own(i uint64) *page {
	pg := new(page)
	if old := img.pages[i]; old != nil {
		*pg = *old // want "writes *pmem.page"
	}
	img.pages[i] = pg   // want "writes pmem.Image.pages"
	img.owned[i] = true // want "writes pmem.Image.owned"
	return pg
}

// writable returns page i for an in-place write.
func (img *Image) writable(i uint64) *page {
	if img.owned[i] {
		return img.pages[i]
	}
	return img.own(i)
}

// Write copies p into the image at addr.
func (img *Image) Write(addr uint64, p []byte) {
	for len(p) > 0 {
		n := copy(img.writable(addr / PageSize)[addr%PageSize:], p) // want "writes pmem.page"
		p = p[n:]
		addr += uint64(n)
	}
}

// SetByte stores one byte through a page pointer held in a local.
func (img *Image) SetByte(addr uint64, b byte) {
	pg := img.writable(addr / PageSize)
	pg[addr%PageSize] = b // want "writes pmem.page"
}

// ReadByte only reads: no analyzer may flag it.
func (img *Image) ReadByte(addr uint64) byte {
	if pg := img.pages[addr/PageSize]; pg != nil {
		return pg[addr%PageSize]
	}
	return 0
}
