package engine

import (
	"slices"

	"github.com/persistmem/slpmt/internal/mem"
)

// lineMap maps line addresses to write-set class bits and also lists
// its keys in insertion order, so resetting and walking it cost
// O(entries). Go's clear and range over a map cost O(capacity), and one
// large transaction would otherwise leave every later transaction
// paying for its map size. Entries are never deleted one by one, so
// keys holds each address once.
type lineMap struct {
	m    map[mem.Addr]uint8
	keys []mem.Addr
}

func newLineMap() lineMap {
	return lineMap{m: make(map[mem.Addr]uint8)}
}

// or sets class bits cls on line a.
func (k *lineMap) or(a mem.Addr, cls uint8) {
	if _, ok := k.m[a]; !ok {
		if len(k.keys) == cap(k.keys) {
			// Double, where append would grow a large slice by 1.25x
			// and allocate ~5x its final size on the way there.
			k.keys = append(make([]mem.Addr, 0, 2*cap(k.keys)+16), k.keys...)
		}
		k.keys = append(k.keys, a)
	}
	k.m[a] |= cls
}

// reset empties the map, keeping its storage and the key list's.
func (k *lineMap) reset() {
	for _, a := range k.keys {
		delete(k.m, a)
	}
	k.keys = k.keys[:0]
}

// sorted copies the keys into buf (reused across calls) in address
// order, so persist loops run in a deterministic order.
func (k *lineMap) sorted(buf []mem.Addr) []mem.Addr {
	buf = append(buf[:0], k.keys...)
	slices.Sort(buf)
	return buf
}

// lazySet is a transaction's lazily persistent lines (§III-C1). While
// the transaction runs only m is kept: every lazy line is also a
// write-set line, so the write set's key list resets it. Commit lists
// the lines in keys in address order, and the set moves to a retained
// transaction, where a natural writeback may delete a line from m
// (keys keeps it; walks skip lines m no longer holds).
type lazySet struct {
	m    map[mem.Addr]struct{}
	keys []mem.Addr
}

// list fills keys with m's lines, in address order, out of the
// transaction's write set (which holds each of them exactly once).
func (s *lazySet) list(writeSet []mem.Addr) {
	if cap(s.keys) < len(s.m) {
		s.keys = make([]mem.Addr, 0, len(s.m))
	}
	s.keys = s.keys[:0]
	for _, la := range writeSet {
		if _, ok := s.m[la]; ok {
			s.keys = append(s.keys, la)
		}
	}
	slices.Sort(s.keys)
}

// reset empties a listed set.
func (s *lazySet) reset() {
	for _, la := range s.keys {
		delete(s.m, la)
	}
	s.keys = s.keys[:0]
}
