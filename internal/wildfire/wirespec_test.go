package wildfire

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/types"
	"umzi/internal/wire"
)

// randSpecValue draws a filter constant, biased toward the edge cases
// the value codec must carry exactly.
func randSpecValue(rng *rand.Rand) keyenc.Value {
	switch rng.Intn(7) {
	case 0:
		return keyenc.I64([]int64{0, -1, math.MinInt64, math.MaxInt64, rng.Int63()}[rng.Intn(5)])
	case 1:
		return keyenc.U64(rng.Uint64())
	case 2:
		return keyenc.F64([]float64{0, -0.0, 3.5, math.Inf(-1), -1e300}[rng.Intn(5)])
	case 3:
		return keyenc.B(rng.Intn(2) == 0)
	case 4:
		return keyenc.Str("")
	case 5:
		b := make([]byte, rng.Intn(20))
		rng.Read(b)
		return keyenc.Raw(b)
	default:
		return keyenc.Str([]string{"a", "pad", "zzz", "col värde"}[rng.Intn(4)])
	}
}

// randExpr grows a filter tree of bounded depth using only the
// builder-exposed constructors (Cmp through Or), so every generated
// tree is one a client program could have written.
func randExpr(rng *rand.Rand, depth int) exec.Expr {
	cols := []string{"k", "v", "w", "region"}
	if depth >= 4 || rng.Intn(3) > 0 {
		col := cols[rng.Intn(len(cols))]
		op := exec.CmpOp(rng.Intn(6)) // OpEq..OpGe
		return exec.Cmp(col, op, randSpecValue(rng))
	}
	n := 1 + rng.Intn(4)
	kids := make([]exec.Expr, n)
	for i := range kids {
		kids[i] = randExpr(rng, depth+1)
	}
	if rng.Intn(2) == 0 {
		return exec.And(kids...)
	}
	return exec.Or(kids...)
}

func randStrings(rng *rand.Rand, pool []string) []string {
	if rng.Intn(2) == 0 {
		return nil
	}
	n := 1 + rng.Intn(len(pool))
	out := make([]string, 0, n)
	for _, s := range pool[:n] {
		out = append(out, s)
	}
	return out
}

// randQuerySpec draws one spec covering every builder-expressible
// shape: row queries with projections and ordering, aggregates with
// grouping, forced indexes, snapshot pins, and live unions.
func randQuerySpec(rng *rand.Rand) QuerySpec {
	spec := QuerySpec{
		IncludeLive:      rng.Intn(2) == 0,
		NoIndexSelection: rng.Intn(3) == 0,
	}
	if rng.Intn(2) == 0 {
		spec.Filter = randExpr(rng, 0)
	}
	if rng.Intn(3) == 0 {
		spec.TS = types.TS(rng.Uint64() >> 1)
	}
	if rng.Intn(2) == 0 {
		spec.Limit = rng.Intn(1 << 20)
	}
	if rng.Intn(4) == 0 {
		spec.Via = []string{"", "by_region", "idx2"}[rng.Intn(3)]
		spec.ViaSet = true
	}
	if rng.Intn(3) == 0 { // aggregate query
		spec.GroupBy = randStrings(rng, []string{"region", "w"})
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			spec.Aggs = append(spec.Aggs, exec.Agg{
				Func: exec.AggFunc(rng.Intn(5)), // Count..Avg
				Col:  []string{"", "v", "k"}[rng.Intn(3)],
				As:   []string{"", "out", "total"}[rng.Intn(3)],
			})
		}
	} else { // row query
		spec.Columns = randStrings(rng, []string{"k", "v", "region"})
		spec.OrderBy = randStrings(rng, []string{"k", "v"})
	}
	return spec
}

// TestQuerySpecRoundTrip is the codec property behind remote queries:
// every builder-expressible spec survives marshal → unmarshal with its
// meaning intact, witnessed two ways — re-marshaling the decoded spec
// yields the identical bytes, and every non-filter field compares deep
// equal (filters compare through their encoding, since unmarshal
// rebuilds them through the constructors).
func TestQuerySpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		spec := randQuerySpec(rng)
		b, err := MarshalQuerySpec(spec)
		if err != nil {
			t.Fatalf("iter %d: marshal: %v", i, err)
		}
		got, err := UnmarshalQuerySpec(b)
		if err != nil {
			t.Fatalf("iter %d: unmarshal %+v: %v", i, spec, err)
		}
		b2, err := MarshalQuerySpec(got)
		if err != nil {
			t.Fatalf("iter %d: re-marshal: %v", i, err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("iter %d: re-marshal differs for %+v:\n  %x\n  %x", i, spec, b, b2)
		}

		want := spec
		want.Filter, got.Filter = nil, nil
		// The codec normalizes empty-but-allocated slices to nil.
		normalize := func(s *QuerySpec) {
			if len(s.Columns) == 0 {
				s.Columns = nil
			}
			if len(s.OrderBy) == 0 {
				s.OrderBy = nil
			}
			if len(s.GroupBy) == 0 {
				s.GroupBy = nil
			}
			if len(s.Aggs) == 0 {
				s.Aggs = nil
			}
		}
		normalize(&want)
		normalize(&got)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("iter %d: fields changed:\n want %+v\n  got %+v", i, want, got)
		}
	}
}

func TestQuerySpecTraceDropped(t *testing.T) {
	// Explain traces are process-local handles; they must not affect the
	// wire form, and the decoded spec must not carry one.
	a, err := MarshalQuerySpec(QuerySpec{Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := UnmarshalQuerySpec(a)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Trace != nil {
		t.Fatal("decoded spec carries a trace")
	}
}

func TestQuerySpecVersionRejected(t *testing.T) {
	b, err := MarshalQuerySpec(QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	b[0] = 99
	if _, err := UnmarshalQuerySpec(b); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestQuerySpecTrailingBytesRejected(t *testing.T) {
	b, err := MarshalQuerySpec(QuerySpec{Filter: exec.Eq("k", keyenc.I64(1))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalQuerySpec(append(b, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestQuerySpecDepthCapBothWays(t *testing.T) {
	deep := exec.Expr(exec.Eq("k", keyenc.I64(1)))
	for i := 0; i < exprMaxDepth+1; i++ {
		deep = exec.And(deep)
	}
	if _, err := MarshalQuerySpec(QuerySpec{Filter: deep}); err == nil {
		t.Fatal("over-deep filter marshaled")
	}
	// Hand-build the same over-deep tree on the wire: nested And nodes
	// of one kid each, ending in a Cmp leaf. Decode must refuse it.
	b := []byte{wireSpecVersion, specFlagFilter}
	b = wire.AppendString(b, "")   // Via
	b = wire.AppendU64(b, 0)       // TS
	b = wire.AppendUvarint(b, 0)   // Limit
	b = wire.AppendStrings(b, nil) // Columns
	b = wire.AppendStrings(b, nil) // OrderBy
	b = wire.AppendStrings(b, nil) // GroupBy
	b = wire.AppendUvarint(b, 0)   // Aggs
	for i := 0; i < exprMaxDepth+2; i++ {
		b = append(b, exprTagAnd)
		b = wire.AppendUvarint(b, 1)
	}
	b = append(b, exprTagCmp)
	b = wire.AppendString(b, "k")
	b = append(b, byte(exec.OpEq))
	var err error
	if b, err = wire.AppendValue(b, keyenc.I64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalQuerySpec(b); err == nil {
		t.Fatal("over-deep wire filter decoded")
	}
}

func TestQuerySpecUnknownNodeTagRejected(t *testing.T) {
	// A spec whose filter is a single bogus node: unknown tag, exactly.
	hdr := []byte{wireSpecVersion, specFlagFilter}
	hdr = wire.AppendString(hdr, "")
	hdr = wire.AppendU64(hdr, 0)
	hdr = wire.AppendUvarint(hdr, 0)
	hdr = wire.AppendStrings(hdr, nil)
	hdr = wire.AppendStrings(hdr, nil)
	hdr = wire.AppendStrings(hdr, nil)
	hdr = wire.AppendUvarint(hdr, 0)
	hdr = append(hdr, 0x7f) // no such node tag
	if _, err := UnmarshalQuerySpec(hdr); err == nil {
		t.Fatal("unknown filter node tag accepted")
	}
}

func TestQuerySpecGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		if len(b) > 0 {
			b[0] = wireSpecVersion // get past the version gate sometimes
		}
		UnmarshalQuerySpec(b) // must not panic; errors are fine
	}
}

// FuzzUnmarshalQuerySpec feeds untrusted bytes to the spec decoder every
// remote query runs: it must never panic, and an accepted spec must
// re-marshal to bytes that decode and re-marshal to themselves.
func FuzzUnmarshalQuerySpec(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 16; i++ {
		b, err := MarshalQuerySpec(randQuerySpec(rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	garbage := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		b := make([]byte, garbage.Intn(64))
		garbage.Read(b)
		if len(b) > 0 {
			b[0] = wireSpecVersion
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := UnmarshalQuerySpec(data)
		if err != nil {
			return
		}
		b1, err := MarshalQuerySpec(spec)
		if err != nil {
			t.Fatalf("accepted %x but cannot re-marshal it: %v", data, err)
		}
		again, err := UnmarshalQuerySpec(b1)
		if err != nil {
			t.Fatalf("re-marshaled %x does not decode: %v", b1, err)
		}
		b2, err := MarshalQuerySpec(again)
		if err != nil {
			t.Fatalf("re-decoded spec does not marshal: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("re-marshal is not stable:\n  %x\n  %x", b1, b2)
		}
	})
}
