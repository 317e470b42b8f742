package wildfire

import (
	"fmt"

	"umzi/internal/exec"
	"umzi/internal/types"
	"umzi/internal/wire"
)

// QuerySpec wire form. A compiled spec travels from the client package
// to umzi-server inside a Query frame, so remote queries run the exact
// plan the local builder would have run — the local-vs-remote
// equivalence property is a test over this codec. The layout is
// versioned, binary and self-bounded:
//
//	u8  version (wireSpecVersion)
//	u8  flags   (IncludeLive | NoIndexSelection | ViaSet | has-filter)
//	str Via
//	u64 TS
//	uvarint Limit
//	[]str Columns, OrderBy, GroupBy
//	uvarint #aggs, each: u8 func | str col | str as
//	filter (when flagged): predicate tree, depth- and node-capped
//
// Trace never travels: explain traces are a process-local concern.

const wireSpecVersion = 1

const (
	specFlagIncludeLive = 1 << iota
	specFlagNoIndexSelection
	specFlagViaSet
	specFlagFilter
)

// Filter-tree node tags.
const (
	exprTagCmp byte = iota
	exprTagAnd
	exprTagOr
)

// exprMaxDepth bounds predicate-tree nesting on both encode and decode;
// exprMaxNodes bounds the total decoded node count, so a hostile
// payload cannot drive unbounded recursion or allocation.
const (
	exprMaxDepth = 100
	exprMaxNodes = 1 << 16
)

// MarshalQuerySpec encodes a spec for the wire. Trace is dropped; an
// unknown (foreign) filter-expression type is an error.
func MarshalQuerySpec(spec QuerySpec) ([]byte, error) {
	var flags byte
	if spec.IncludeLive {
		flags |= specFlagIncludeLive
	}
	if spec.NoIndexSelection {
		flags |= specFlagNoIndexSelection
	}
	if spec.ViaSet {
		flags |= specFlagViaSet
	}
	if spec.Filter != nil {
		flags |= specFlagFilter
	}
	b := []byte{wireSpecVersion, flags}
	b = wire.AppendString(b, spec.Via)
	b = wire.AppendU64(b, uint64(spec.TS))
	b = wire.AppendUvarint(b, uint64(spec.Limit))
	b = wire.AppendStrings(b, spec.Columns)
	b = wire.AppendStrings(b, spec.OrderBy)
	b = wire.AppendStrings(b, spec.GroupBy)
	b = wire.AppendUvarint(b, uint64(len(spec.Aggs)))
	for _, a := range spec.Aggs {
		b = append(b, byte(a.Func))
		b = wire.AppendString(b, a.Col)
		b = wire.AppendString(b, a.As)
	}
	if spec.Filter != nil {
		var err error
		if b, err = appendExpr(b, spec.Filter, 0); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendExpr(b []byte, e exec.Expr, depth int) ([]byte, error) {
	if depth > exprMaxDepth {
		return nil, fmt.Errorf("wildfire: filter deeper than %d levels", exprMaxDepth)
	}
	node, err := exec.Decompose(e)
	if err != nil {
		return nil, err
	}
	if node.Leaf {
		b = append(b, exprTagCmp)
		b = wire.AppendString(b, node.Col)
		b = append(b, byte(node.Op))
		return wire.AppendValue(b, node.Val)
	}
	if node.And {
		b = append(b, exprTagAnd)
	} else {
		b = append(b, exprTagOr)
	}
	b = wire.AppendUvarint(b, uint64(len(node.Kids)))
	for _, k := range node.Kids {
		if b, err = appendExpr(b, k, depth+1); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// UnmarshalQuerySpec decodes a wire-form spec.
func UnmarshalQuerySpec(b []byte) (QuerySpec, error) {
	d := wire.NewDec(b)
	if v := d.Byte(); d.Err() == nil && v != wireSpecVersion {
		return QuerySpec{}, fmt.Errorf("wildfire: query spec version %d, want %d", v, wireSpecVersion)
	}
	flags := d.Byte()
	spec := QuerySpec{
		IncludeLive:      flags&specFlagIncludeLive != 0,
		NoIndexSelection: flags&specFlagNoIndexSelection != 0,
		ViaSet:           flags&specFlagViaSet != 0,
	}
	spec.Via = d.String()
	spec.TS = types.TS(d.U64())
	spec.Limit = int(d.Count(1 << 40))
	spec.Columns = d.Strings()
	spec.OrderBy = d.Strings()
	spec.GroupBy = d.Strings()
	nAggs := d.Count(1 << 12)
	for i := 0; i < nAggs && d.Err() == nil; i++ {
		a := exec.Agg{Func: exec.AggFunc(d.Byte())}
		a.Col = d.String()
		a.As = d.String()
		spec.Aggs = append(spec.Aggs, a)
	}
	if flags&specFlagFilter != 0 {
		nodes := 0
		spec.Filter = decodeExpr(d, 0, &nodes)
	}
	if err := d.Err(); err != nil {
		return QuerySpec{}, fmt.Errorf("wildfire: decoding query spec: %w", err)
	}
	if d.Len() != 0 {
		return QuerySpec{}, fmt.Errorf("wildfire: %d trailing bytes after query spec", d.Len())
	}
	return spec, nil
}

func decodeExpr(d *wire.Dec, depth int, nodes *int) exec.Expr {
	if depth > exprMaxDepth || *nodes >= exprMaxNodes {
		d.Fail("filter tree exceeds decode limits")
		return nil
	}
	*nodes++
	switch tag := d.Byte(); tag {
	case exprTagCmp:
		col := d.String()
		op := exec.CmpOp(d.Byte())
		val := d.Value()
		if d.Err() != nil {
			return nil
		}
		return exec.Cmp(col, op, val)
	case exprTagAnd, exprTagOr:
		n := d.Count(1 << 12)
		kids := make([]exec.Expr, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			kids = append(kids, decodeExpr(d, depth+1, nodes))
		}
		if d.Err() != nil {
			return nil
		}
		if tag == exprTagAnd {
			return exec.And(kids...)
		}
		return exec.Or(kids...)
	default:
		if d.Err() == nil {
			d.Fail("unknown filter node tag %d", tag)
		}
		return nil
	}
}

// ---- Catalog DTOs -----------------------------------------------------
//
// Catalog payloads are JSON: they are tiny, once-per-DDL and debuggable
// with standard tools, exactly like the persisted DB catalog they
// mirror. They live here (not in package wire) because they name engine
// types; wire stays leaf-level. The CreateTable payload is
// front.CreateTableRequest.

// CatalogTable is one table of a CatalogResponse.
type CatalogTable struct {
	Def    TableDef
	Index  IndexSpec
	Shards int
}

// CatalogResponse is the payload of a CatalogData frame.
type CatalogResponse struct {
	Tables []CatalogTable
}
