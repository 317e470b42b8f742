package columnar

import (
	"encoding/binary"

	"umzi/internal/keyenc"
)

// Key fingerprints: a 32-bit hash of a row's key columns, for
// reconciliation passes that anti-join many block rows against a few
// shadowing keys. Equal keys always get equal fingerprints — two values
// with equal keyenc encodings have equal raw words (fixed kinds) or equal
// payload bytes (variable kinds), and only those feed the hash — so a
// fingerprint miss proves a key absent; a hit still needs an exact
// comparison. A fingerprint is never 0, so a hash table of fingerprints
// can mark its empty slots with 0.
//
// The block kernel (KeyFingerprints) works over the encoded columns:
// fixed kinds fold the raw 64-bit word, variable kinds hash the payload
// bytes, once per dictionary entry or run rather than per row. The
// scalar twin (KeyFingerprint) hashes a materialized row the same way.

// fpSeed starts every row's hash.
const fpSeed = 0x9e3779b97f4a7c15

// fpMix is the murmur3 64-bit finalizer: a bijection that spreads every
// input bit over the whole word.
func fpMix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// fpBytes hashes a variable-kind payload to one word. The length goes in
// first, so payloads that differ only by trailing zero bytes differ.
func fpBytes(b []byte) uint64 {
	h := fpMix(uint64(len(b)) ^ fpSeed)
	for ; len(b) >= 8; b = b[8:] {
		h = fpMix(h ^ binary.LittleEndian.Uint64(b))
	}
	var tail uint64
	for i, c := range b {
		tail |= uint64(c) << (8 * i)
	}
	return fpMix(h ^ tail)
}

// fpFinish folds a row's running hash to its nonzero 32-bit fingerprint.
func fpFinish(h uint64) uint32 {
	fp := uint32(h>>32) ^ uint32(h)
	if fp == 0 {
		return 1
	}
	return fp
}

// KeyFingerprint returns the fingerprint of row's values at the key
// column ordinals cols — the scalar twin of Block.KeyFingerprints, equal
// to it on the same key. Str and Raw values of one payload fingerprint
// alike.
func KeyFingerprint(row []keyenc.Value, cols []int) uint32 {
	h := uint64(fpSeed)
	for _, c := range cols {
		v := row[c]
		if v.Kind().Fixed() {
			h = fpMix(h ^ rawBits(v))
		} else {
			h = fpMix(h ^ fpBytes(v.Bytes()))
		}
	}
	return fpFinish(h)
}

// KeyFingerprints returns the fingerprint of every row's key columns
// cols, in row order. The first call computes the column and publishes
// it on the block, where MemSize counts it; published reports whether
// this call did so, so a cache charging the block's bytes charges the
// column once. A block has one key: every call must pass the same cols.
// The returned slice is shared and must not be modified.
func (blk *Block) KeyFingerprints(cols []int) (fps []uint32, published bool) {
	if p := blk.fps.Load(); p != nil {
		return *p, false
	}
	fps = blk.computeKeyFingerprints(cols)
	if blk.fps.CompareAndSwap(nil, &fps) {
		return fps, true
	}
	return *blk.fps.Load(), false
}

// fingerprintBytes is the memory the published fingerprint column holds.
func (blk *Block) fingerprintBytes() int {
	if p := blk.fps.Load(); p != nil {
		return 4 * len(*p)
	}
	return 0
}

// computeKeyFingerprints hashes the key columns column at a time into
// per-row running hashes, then folds each to its fingerprint.
func (blk *Block) computeKeyFingerprints(cols []int) []uint32 {
	h := make([]uint64, blk.rows)
	for r := range h {
		h[r] = fpSeed
	}
	for _, col := range cols {
		blk.foldColumn(col, h)
	}
	fps := make([]uint32, blk.rows)
	for r, x := range h {
		fps[r] = fpFinish(x)
	}
	return fps
}

// foldColumn mixes one column's per-row word into h, directly over the
// column's encoding.
func (blk *Block) foldColumn(col int, h []uint64) {
	c := &blk.cols[col]
	kind := blk.schema.Col(col).Kind
	if kind.Fixed() {
		switch c.enc {
		case EncPlain:
			for r := range h {
				h[r] = fpMix(h[r] ^ u64At(c.words, r))
			}
		case EncBitPack:
			var deltas [64]uint64
			for base := 0; base < len(h); base += 64 {
				hs := h[base:min(base+64, len(h))]
				unpack(c.words, c.width, base, chunkSel(len(hs)), &deltas)
				for i, d := range deltas[:len(hs)] {
					hs[i] = fpMix(hs[i] ^ keyenc.SortKeyBitsInv(kind, c.base+d))
				}
			}
		case EncRLE:
			c.foldRuns(h, func(i int) uint64 { return u64At(c.words, i) })
		}
		return
	}
	switch c.enc {
	case EncPlain:
		for r := range h {
			h[r] = fpMix(h[r] ^ fpBytes(c.entry(r)))
		}
	case EncDict:
		dict := make([]uint64, len(c.offsets)/4-1)
		for i := range dict {
			dict[i] = fpBytes(c.entry(i))
		}
		var codes [64]uint64
		for base := 0; base < len(h); base += 64 {
			hs := h[base:min(base+64, len(h))]
			unpack(c.words, c.width, base, chunkSel(len(hs)), &codes)
			for i, code := range codes[:len(hs)] {
				hs[i] = fpMix(hs[i] ^ dict[code])
			}
		}
	case EncRLE:
		c.foldRuns(h, func(i int) uint64 { return fpBytes(c.entry(i)) })
	}
}

// foldRuns mixes word(run) into the rows of every run, computing each
// run's word once.
func (c *column) foldRuns(h []uint64, word func(i int) uint64) {
	start := 0
	for i := 0; i < len(c.ends)/4; i++ {
		w, end := word(i), c.runEnd(i)
		for r := start; r < end; r++ {
			h[r] = fpMix(h[r] ^ w)
		}
		start = end
	}
}
