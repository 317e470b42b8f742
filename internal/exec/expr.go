package exec

import (
	"fmt"
	"strings"

	"umzi/internal/columnar"
	"umzi/internal/keyenc"
)

// The predicate model: comparisons between a named table column and a
// constant, composed with AND / OR. Expressions are built unbound (by
// column name) so plans are declared against the public table surface,
// then bound once against a table's column list to ordinals before
// execution; the bound form is what every shard evaluates.

// CmpOp enumerates the comparison operators.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota // ==
	OpNe              // !=
	OpLt              // <
	OpLe              // <=
	OpGt              // >
	OpGe              // >=
)

// String implements fmt.Stringer.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Expr is a predicate over a table row. Build leaves with Cmp (or the
// Eq/Ne/Lt/Le/Gt/Ge shorthands) and combine them with And / Or.
type Expr interface {
	fmt.Stringer
	bind(cols []columnar.Column) (boundExpr, error)
}

// cmpExpr is one comparison leaf: <column> <op> <constant>.
type cmpExpr struct {
	col string
	op  CmpOp
	val keyenc.Value
}

// Cmp builds a comparison between a column and a constant value.
func Cmp(col string, op CmpOp, v keyenc.Value) Expr { return cmpExpr{col: col, op: op, val: v} }

// Eq builds column == value.
func Eq(col string, v keyenc.Value) Expr { return Cmp(col, OpEq, v) }

// Ne builds column != value.
func Ne(col string, v keyenc.Value) Expr { return Cmp(col, OpNe, v) }

// Lt builds column < value.
func Lt(col string, v keyenc.Value) Expr { return Cmp(col, OpLt, v) }

// Le builds column <= value.
func Le(col string, v keyenc.Value) Expr { return Cmp(col, OpLe, v) }

// Gt builds column > value.
func Gt(col string, v keyenc.Value) Expr { return Cmp(col, OpGt, v) }

// Ge builds column >= value.
func Ge(col string, v keyenc.Value) Expr { return Cmp(col, OpGe, v) }

func (e cmpExpr) String() string { return fmt.Sprintf("%s %v %v", e.col, e.op, e.val) }

// andExpr / orExpr combine child predicates.
type andExpr struct{ kids []Expr }
type orExpr struct{ kids []Expr }

// And builds the conjunction of the operands.
func And(kids ...Expr) Expr { return andExpr{kids: kids} }

// Or builds the disjunction of the operands.
func Or(kids ...Expr) Expr { return orExpr{kids: kids} }

func joinExprs(kids []Expr, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = k.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

func (e andExpr) String() string { return joinExprs(e.kids, " AND ") }
func (e orExpr) String() string  { return joinExprs(e.kids, " OR ") }

// ExprNode is the one-level structural view of an Expr that Decompose
// exposes, so serializers (the wire protocol's QuerySpec marshaler) can
// walk a predicate tree without this package exporting its node types.
type ExprNode struct {
	// Leaf marks a comparison; Col/Op/Val describe it.
	Leaf bool
	Col  string
	Op   CmpOp
	Val  keyenc.Value
	// Interior nodes: And distinguishes conjunction from disjunction,
	// Kids are the operands (decompose each recursively).
	And  bool
	Kids []Expr
}

// Decompose exposes the top-level structure of an expression built by
// this package. It errors on foreign Expr implementations, which have
// no portable form.
func Decompose(e Expr) (ExprNode, error) {
	switch v := e.(type) {
	case cmpExpr:
		return ExprNode{Leaf: true, Col: v.col, Op: v.op, Val: v.val}, nil
	case andExpr:
		return ExprNode{And: true, Kids: v.kids}, nil
	case orExpr:
		return ExprNode{Kids: v.kids}, nil
	default:
		return ExprNode{}, fmt.Errorf("exec: cannot decompose foreign expression %T", e)
	}
}

// RowView accesses one row's column values by table-column ordinal. Both
// materialized rows and columnar block rows adapt to it, so predicates and
// aggregates read only the columns they touch.
type RowView func(col int) keyenc.Value

// boundExpr is a predicate with column names resolved to ordinals.
type boundExpr interface {
	eval(row RowView) bool
	// canMatch conservatively reports whether any row of a block with the
	// given per-column min/max synopses could satisfy the predicate. A
	// column without a synopsis (empty block) matches nothing.
	canMatch(syn BlockSynopsis) bool
	// columns reports every column ordinal the predicate reads.
	columns(add func(col int))
	// evalVec evaluates the predicate over every row of the block at
	// once, fully overwriting out with the selection (vector.go).
	evalVec(blk *columnar.Block, out *Bitmap)
}

type boundCmp struct {
	col int
	op  CmpOp
	val keyenc.Value
}

func (e cmpExpr) bind(cols []columnar.Column) (boundExpr, error) {
	idx, err := colOrdinal(cols, e.col)
	if err != nil {
		return nil, fmt.Errorf("exec: predicate column %q not in table", e.col)
	}
	want, got := cols[idx].Kind, e.val.Kind()
	comparable := got == want ||
		(want == keyenc.KindBytes && got == keyenc.KindString) ||
		(want == keyenc.KindString && got == keyenc.KindBytes)
	if !comparable {
		return nil, fmt.Errorf("exec: predicate %q compares %v column with %v constant", e.col, want, got)
	}
	return boundCmp{col: idx, op: e.op, val: e.val}, nil
}

func cmpHolds(op CmpOp, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

func (b boundCmp) eval(row RowView) bool {
	return cmpHolds(b.op, keyenc.Compare(row(b.col), b.val))
}

func (b boundCmp) canMatch(syn BlockSynopsis) bool {
	min, ok := syn.ColumnMin(b.col)
	if !ok {
		return false
	}
	max, _ := syn.ColumnMax(b.col)
	switch b.op {
	case OpEq:
		return keyenc.Compare(b.val, min) >= 0 && keyenc.Compare(b.val, max) <= 0
	case OpNe:
		// Only a single-valued block pinned to the constant cannot match.
		return !(keyenc.Compare(min, max) == 0 && keyenc.Compare(b.val, min) == 0)
	case OpLt:
		return keyenc.Compare(min, b.val) < 0
	case OpLe:
		return keyenc.Compare(min, b.val) <= 0
	case OpGt:
		return keyenc.Compare(max, b.val) > 0
	default:
		return keyenc.Compare(max, b.val) >= 0
	}
}

func (b boundCmp) columns(add func(int)) { add(b.col) }

type boundAnd struct{ kids []boundExpr }
type boundOr struct{ kids []boundExpr }

func (b boundAnd) columns(add func(int)) {
	for _, k := range b.kids {
		k.columns(add)
	}
}

func (b boundOr) columns(add func(int)) {
	for _, k := range b.kids {
		k.columns(add)
	}
}

func bindKids(kids []Expr, cols []columnar.Column, what string) ([]boundExpr, error) {
	if len(kids) == 0 {
		return nil, fmt.Errorf("exec: %s needs at least one operand", what)
	}
	out := make([]boundExpr, len(kids))
	for i, k := range kids {
		b, err := k.bind(cols)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func (e andExpr) bind(cols []columnar.Column) (boundExpr, error) {
	kids, err := bindKids(e.kids, cols, "And")
	if err != nil {
		return nil, err
	}
	return boundAnd{kids: kids}, nil
}

func (e orExpr) bind(cols []columnar.Column) (boundExpr, error) {
	kids, err := bindKids(e.kids, cols, "Or")
	if err != nil {
		return nil, err
	}
	return boundOr{kids: kids}, nil
}

func (b boundAnd) eval(row RowView) bool {
	for _, k := range b.kids {
		if !k.eval(row) {
			return false
		}
	}
	return true
}

func (b boundAnd) canMatch(syn BlockSynopsis) bool {
	for _, k := range b.kids {
		if !k.canMatch(syn) {
			return false
		}
	}
	return true
}

func (b boundOr) eval(row RowView) bool {
	for _, k := range b.kids {
		if k.eval(row) {
			return true
		}
	}
	return false
}

func (b boundOr) canMatch(syn BlockSynopsis) bool {
	for _, k := range b.kids {
		if k.canMatch(syn) {
			return true
		}
	}
	return false
}
