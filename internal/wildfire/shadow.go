package wildfire

import (
	"umzi/internal/columnar"
	"umzi/internal/exec"
	"umzi/internal/keyenc"
)

// The executor's shadow: the keys of a query's pending groomed versions
// and live records. Each supersedes every post-groomed version of its
// key, and the newest pending version of a key is its pending winner.
// The set is keyed on columnar key fingerprints, so probing it for a
// post-groomed row costs one fingerprint load and, almost always, one
// empty slot: no key encoding and no string hashing. Only a fingerprint
// hit pays the exact key comparison, which also settles the rare
// collision between distinct keys.

// collideFingerprints makes every key fingerprint the executor reads the
// same value, so every probe hits and the exact key check alone decides.
// Tests set it to prove the results do not depend on fingerprints.
var collideFingerprints bool

// keyFingerprints returns the primary-key fingerprint column of a
// fetched block. The first query that reconciles the block against
// pending or live versions computes it and charges its bytes to the
// block cache; a query with nothing to reconcile never asks.
func (e *shard) keyFingerprints(sb scanBlk, pkIdx []int) []uint32 {
	fps, published := sb.blk.KeyFingerprints(pkIdx)
	if published {
		e.blocks.recharge(sb.name, sb.blk)
	}
	if collideFingerprints {
		fps = make([]uint32, len(fps))
		for i := range fps {
			fps[i] = 1
		}
	}
	return fps
}

// liveFingerprint is the primary-key fingerprint of a live row, equal to
// its key's fingerprint in any block.
func liveFingerprint(row Row, pkIdx []int) uint32 {
	if collideFingerprints {
		return 1
	}
	return columnar.KeyFingerprint(row, pkIdx)
}

// shadowSlot is one key of the shadow: its newest pending version so far,
// or a live record, which beats every pending version.
type shadowSlot struct {
	beginTS uint64
	block   int32 // index of the query's pending block, or -1 for live
	row     int32 // row of that block, or index into shadowSet.live
}

// shadowSet is a flat open-addressing table with linear probing, sized to
// at most half full. fps[i] is slot i's key fingerprint; fingerprints are
// never 0, which marks an empty slot.
type shadowSet struct {
	fps     []uint32
	slots   []shadowSlot
	mask    uint32
	n       int
	pkIdx   []int     // the key's column ordinals, in key order
	pending []scanBlk // the query's pending blocks, in zone order
	live    []Row
}

// newShadowSet returns a set with room for every row of the query's
// pending blocks and liveRows live records; with neither it allocates
// nothing.
func newShadowSet(pending []scanBlk, liveRows int, pkIdx []int) *shadowSet {
	s := &shadowSet{pkIdx: pkIdx, pending: pending}
	keys := liveRows
	for _, sb := range pending {
		keys += sb.blk.NumRows()
	}
	if keys == 0 {
		return s
	}
	if liveRows > 0 {
		s.live = make([]Row, 0, liveRows)
	}
	size := 16
	for size < 2*keys {
		size <<= 1
	}
	s.fps = make([]uint32, size)
	s.slots = make([]shadowSlot, size)
	s.mask = uint32(size - 1)
	return s
}

// keyAt returns key column c of slot i.
func (s *shadowSet) keyAt(i uint32, c int) keyenc.Value {
	sl := &s.slots[i]
	if sl.block < 0 {
		return s.live[sl.row][c]
	}
	return s.pending[sl.block].blk.Value(int(sl.row), c)
}

// find returns the slot holding the key whose column c is key(c) and
// whose fingerprint is fp. When the key is absent, ok is false and i is
// the empty slot that ends its probe sequence.
func (s *shadowSet) find(fp uint32, key func(c int) keyenc.Value) (i uint32, ok bool) {
	for i = fp & s.mask; s.fps[i] != 0; i = (i + 1) & s.mask {
		if s.fps[i] == fp && s.keyEqual(i, key) {
			return i, true
		}
	}
	return i, false
}

func (s *shadowSet) keyEqual(i uint32, key func(c int) keyenc.Value) bool {
	for _, c := range s.pkIdx {
		if keyenc.Compare(s.keyAt(i, c), key(c)) != 0 {
			return false
		}
	}
	return true
}

// hit reports whether some key of the set has fingerprint fp. A miss
// proves the key absent; a hit needs find's exact check.
func (s *shadowSet) hit(fp uint32) bool {
	for i := fp & s.mask; s.fps[i] != 0; i = (i + 1) & s.mask {
		if s.fps[i] == fp {
			return true
		}
	}
	return false
}

// holds reports whether row r of blk, whose fingerprint is fp, has its
// key in the set.
func (s *shadowSet) holds(fp uint32, blk *columnar.Block, r int) bool {
	_, ok := s.find(fp, func(c int) keyenc.Value { return blk.Value(r, c) })
	return ok
}

// addPending offers row r of pending block b, a version with beginTS:
// it becomes its key's winner unless the key's winner so far is newer.
func (s *shadowSet) addPending(fp uint32, b, r int, beginTS uint64) {
	blk := s.pending[b].blk
	i, ok := s.find(fp, func(c int) keyenc.Value { return blk.Value(r, c) })
	if ok && s.slots[i].beginTS >= beginTS {
		return
	}
	if !ok {
		s.fps[i] = fp
		s.n++
	}
	s.slots[i] = shadowSlot{beginTS: beginTS, block: int32(b), row: int32(r)}
}

// addLive adds a live record's key, displacing the key's pending winner:
// live records are newer than every groomed version.
func (s *shadowSet) addLive(fp uint32, row Row) {
	i, ok := s.find(fp, func(c int) keyenc.Value { return row[c] })
	if !ok {
		s.fps[i] = fp
		s.n++
	}
	s.live = append(s.live, row)
	s.slots[i] = shadowSlot{block: -1, row: int32(len(s.live) - 1)}
}

// winners returns, per pending block, the bitmap of its rows that are
// their key's winner and pass the block's selection sels[block]; a block
// with no such row gets nil. A nil selection (a block the skip structures
// excluded) passes none.
func (s *shadowSet) winners(sels []*exec.Bitmap) []*exec.Bitmap {
	wins := make([]*exec.Bitmap, len(sels))
	for i, fp := range s.fps {
		sl := s.slots[i]
		if fp == 0 || sl.block < 0 {
			continue
		}
		sel := sels[sl.block]
		if sel == nil || !sel.Get(int(sl.row)) {
			continue
		}
		if wins[sl.block] == nil {
			wins[sl.block] = exec.NewBitmap(sel.Len())
		}
		wins[sl.block].Words()[sl.row>>6] |= 1 << (sl.row & 63)
	}
	return wins
}
