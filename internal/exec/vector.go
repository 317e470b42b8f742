package exec

import (
	"math/bits"

	"umzi/internal/columnar"
)

// The vectorized filter path. Instead of evaluating the predicate tree
// row-at-a-time through RowView (Matches), FilterBlock evaluates each
// comparison leaf over the whole block at once with columnar.CmpSelect —
// which runs directly on the encoded column — and combines leaves with
// word-wise AND/OR over selection bitmaps. Rows materialize only after
// selection (late materialization): the executor touches data columns
// only for the rows whose bits survive.

// Bitmap is a fixed-length selection vector: bit i is set when row i is
// selected. Bits at positions >= Len are always zero.
type Bitmap struct {
	n     int
	words []uint64
}

// NewBitmap returns an empty (all-zero) bitmap over n rows.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of rows the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Words exposes the backing words for vectorized producers
// (columnar.CmpSelect writes into them). len(Words) == ceil(Len/64).
func (b *Bitmap) Words() []uint64 { return b.words }

// Get reports whether row i is selected.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// SetAll selects every row.
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.clampTail()
}

// clampTail zeroes the bits beyond Len in the last word.
func (b *Bitmap) clampTail() {
	if b.n&63 != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= 1<<uint(b.n&63) - 1
	}
}

// And intersects o into b. The bitmaps must have equal length.
func (b *Bitmap) And(o *Bitmap) {
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Or unions o into b. The bitmaps must have equal length.
func (b *Bitmap) Or(o *Bitmap) {
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}

// None reports whether no row is selected.
func (b *Bitmap) None() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of selected rows.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// opFlags decomposes a comparison operator into the three-way-comparison
// flags CmpSelect consumes: which of {<, ==, >} outcomes select a row.
func opFlags(op CmpOp) (lt, eq, gt bool) {
	switch op {
	case OpEq:
		return false, true, false
	case OpNe:
		return true, false, true
	case OpLt:
		return true, false, false
	case OpLe:
		return true, true, false
	case OpGt:
		return false, false, true
	default: // OpGe
		return false, true, true
	}
}

func (b boundCmp) evalVec(blk *columnar.Block, out *Bitmap) {
	lt, eq, gt := opFlags(b.op)
	blk.CmpSelect(b.col, b.val, lt, eq, gt, out.words)
}

func (b boundAnd) evalVec(blk *columnar.Block, out *Bitmap) {
	b.kids[0].evalVec(blk, out)
	var scratch *Bitmap
	for _, k := range b.kids[1:] {
		if out.None() {
			return
		}
		if scratch == nil {
			scratch = NewBitmap(out.n)
		}
		k.evalVec(blk, scratch)
		out.And(scratch)
	}
}

func (b boundOr) evalVec(blk *columnar.Block, out *Bitmap) {
	b.kids[0].evalVec(blk, out)
	var scratch *Bitmap
	for _, k := range b.kids[1:] {
		if scratch == nil {
			scratch = NewBitmap(out.n)
		}
		k.evalVec(blk, scratch)
		out.Or(scratch)
	}
}

// FilterBlock evaluates the plan's filter vectorized over the block and
// returns the selection bitmap. A plan without a filter selects every
// row.
func (b *BoundPlan) FilterBlock(blk *columnar.Block) *Bitmap {
	bm := NewBitmap(blk.NumRows())
	if b.filter == nil {
		bm.SetAll()
		return bm
	}
	b.filter.evalVec(blk, bm)
	return bm
}
