package wildfire

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"umzi/internal/core"
	"umzi/internal/keyenc"
	"umzi/internal/run"
	"umzi/internal/storage"
	"umzi/internal/types"
)

// The index set: one table shard maintains N Umzi indexes — the primary
// (whose key is the primary key) plus any number of named secondaries
// over arbitrary column subsets (§4.1: the index definition is general,
// hash + sort + included columns; Umzi is Wildfire's index structure,
// not just its primary-key path). Every layer of the pipeline drives the
// whole set in lockstep: the groomer builds one run per index per groom
// cycle (§5.2), the indexer evolves each index through the same PSN
// sequence (§5.4), deprecated groomed blocks are reclaimed only once
// every index has passed them, and recovery restores the full set from
// shared storage (§5.5) via the persisted index catalog.
//
// Multi-version semantics of a secondary: its effective key is the
// declared (equality, sort) columns with the primary-key columns that
// are missing from the key appended to the sort columns as a uniquifier.
// Every version of a row therefore owns exactly one entry per secondary
// key it ever carried, and the standard per-key newest-visible-version
// reconciliation applies within the secondary. What the secondary cannot
// see on its own is a *newer* version of the same row under a different
// secondary key — the classic stale-entry problem of multi-version
// secondary indexes (MV-PBT solves it with version chains; we solve it
// with a primary back-check): every secondary query re-validates each
// candidate against the primary index at the query timestamp and keeps
// the candidate only when its beginTS is still the row's newest visible
// version.

// SecondaryIndexSpec declares one secondary index over a table: a name
// (unique per table) plus an IndexSpec whose key columns may be any user
// columns, not just the primary key. The primary-key columns missing
// from the key are appended to the sort columns as a uniquifier, so they
// may not be listed as included columns.
type SecondaryIndexSpec struct {
	Name string
	IndexSpec
}

// Validate checks a secondary declaration against a table definition.
func (s SecondaryIndexSpec) Validate(t TableDef) error {
	if s.Name == "" {
		return fmt.Errorf("wildfire: secondary index needs a name")
	}
	if strings.ContainsAny(s.Name, "/ \t\n") {
		return fmt.Errorf("wildfire: secondary index name %q contains reserved characters", s.Name)
	}
	if len(s.Equality)+len(s.Sort) == 0 {
		return fmt.Errorf("wildfire: secondary index %q needs at least one key column", s.Name)
	}
	pk := map[string]bool{}
	for _, k := range t.PrimaryKey {
		pk[k] = true
	}
	seen := map[string]bool{}
	for _, group := range [][]string{s.Equality, s.Sort, s.Included} {
		for _, c := range group {
			if t.colIndex(c) < 0 {
				return fmt.Errorf("wildfire: secondary index %q: column %q not in table", s.Name, c)
			}
			if seen[c] {
				return fmt.Errorf("wildfire: secondary index %q: duplicate column %q", s.Name, c)
			}
			seen[c] = true
		}
	}
	for _, c := range s.Included {
		if pk[c] {
			return fmt.Errorf("wildfire: secondary index %q: primary-key column %q joins the key as a uniquifier and cannot be an included column", s.Name, c)
		}
	}
	return nil
}

// effectiveSecondarySpec lowers a declared secondary spec to its storage
// layout: the declared spec with the primary-key columns missing from
// the key appended to the sort columns. userSort is the number of sort
// columns the user declared (the prefix scans bound).
func effectiveSecondarySpec(t TableDef, s IndexSpec) (eff IndexSpec, userSort int) {
	eff = IndexSpec{
		Equality: append([]string(nil), s.Equality...),
		Sort:     append([]string(nil), s.Sort...),
		Included: append([]string(nil), s.Included...),
		HashBits: s.HashBits,
	}
	userSort = len(s.Sort)
	inKey := map[string]bool{}
	for _, c := range s.Equality {
		inKey[c] = true
	}
	for _, c := range s.Sort {
		inKey[c] = true
	}
	for _, c := range t.PrimaryKey {
		if !inKey[c] {
			eff.Sort = append(eff.Sort, c)
		}
	}
	return eff, userSort
}

// tableIndex is one index of a table's set: its Umzi instance plus the
// precomputed column plumbing every pipeline stage needs (row → entry
// projection, decoded-entry → table-column mapping, primary-key
// extraction for back-checks and live-zone suppression).
type tableIndex struct {
	name     string    // "" is the primary
	declared IndexSpec // as declared (catalog form)
	spec     IndexSpec // effective layout (pk-uniquified for secondaries)
	userSort int       // sort columns declared by the user (prefix of spec.Sort)
	idx      *core.Index

	// Table-row ordinals of the effective spec's columns.
	eqIdx, sortIdx, inclIdx []int
	// valPos[c] locates table column c in the decoded entry layout
	// (equality ++ sort ++ included), or -1 when the index does not
	// carry the column.
	valPos []int
	// pkPos[i] locates PrimaryKey[i] in the decoded layout; secondaries
	// carry the whole primary key in their key columns by construction.
	pkPos []int
	// priEqPos / priSortPos locate the primary spec's equality and sort
	// values in the decoded layout, for back-check lookups.
	priEqPos, priSortPos []int
}

func (ti *tableIndex) primary() bool { return ti.name == "" }

// flatPos returns the decoded-layout position of a column in spec, or -1.
func flatPos(spec IndexSpec, col string) int {
	for i, c := range spec.Equality {
		if c == col {
			return i
		}
	}
	for i, c := range spec.Sort {
		if c == col {
			return len(spec.Equality) + i
		}
	}
	for i, c := range spec.Included {
		if c == col {
			return len(spec.Equality) + len(spec.Sort) + i
		}
	}
	return -1
}

// newTableIndex precomputes the column plumbing of one index. primarySpec
// is the table's primary index spec (for back-check positions); idx may
// be attached later by the caller.
func newTableIndex(t TableDef, primarySpec IndexSpec, name string, declared IndexSpec, idx *core.Index) *tableIndex {
	ti := &tableIndex{name: name, declared: declared, idx: idx}
	if name == "" {
		ti.spec, ti.userSort = declared, len(declared.Sort)
	} else {
		ti.spec, ti.userSort = effectiveSecondarySpec(t, declared)
	}
	for _, c := range ti.spec.Equality {
		ti.eqIdx = append(ti.eqIdx, t.colIndex(c))
	}
	for _, c := range ti.spec.Sort {
		ti.sortIdx = append(ti.sortIdx, t.colIndex(c))
	}
	for _, c := range ti.spec.Included {
		ti.inclIdx = append(ti.inclIdx, t.colIndex(c))
	}
	ti.valPos = make([]int, len(t.Columns))
	for i, c := range t.Columns {
		ti.valPos[i] = flatPos(ti.spec, c.Name)
	}
	for _, c := range t.PrimaryKey {
		ti.pkPos = append(ti.pkPos, flatPos(ti.spec, c))
	}
	for _, c := range primarySpec.Equality {
		ti.priEqPos = append(ti.priEqPos, flatPos(ti.spec, c))
	}
	for _, c := range primarySpec.Sort {
		ti.priSortPos = append(ti.priSortPos, flatPos(ti.spec, c))
	}
	return ti
}

// rowEq / rowSort / rowIncl project a table row onto the index columns.
func (ti *tableIndex) rowEq(row Row) []keyenc.Value {
	out := make([]keyenc.Value, len(ti.eqIdx))
	for i, c := range ti.eqIdx {
		out[i] = row[c]
	}
	return out
}

func (ti *tableIndex) rowSort(row Row) []keyenc.Value {
	out := make([]keyenc.Value, len(ti.sortIdx))
	for i, c := range ti.sortIdx {
		out[i] = row[c]
	}
	return out
}

func (ti *tableIndex) rowIncl(row Row) []keyenc.Value {
	out := make([]keyenc.Value, len(ti.inclIdx))
	for i, c := range ti.inclIdx {
		out[i] = row[c]
	}
	return out
}

// entryForRow builds this index's entry for one record version.
func (ti *tableIndex) entryForRow(row Row, ts types.TS, rid types.RID) (run.Entry, error) {
	return ti.idx.MakeEntry(ti.rowEq(row), ti.rowSort(row), ti.rowIncl(row), ts, rid)
}

// decodeFlat splits an entry into the flat decoded layout
// (equality ++ sort ++ included values).
func (ti *tableIndex) decodeFlat(e run.Entry) ([]keyenc.Value, error) {
	eq, sortv, incl, err := ti.idx.DecodeEntry(e)
	if err != nil {
		return nil, err
	}
	flat := make([]keyenc.Value, 0, len(eq)+len(sortv)+len(incl))
	flat = append(flat, eq...)
	flat = append(flat, sortv...)
	flat = append(flat, incl...)
	return flat, nil
}

// pkFromFlat extracts the primary index's lookup key from a decoded
// secondary entry.
func (ti *tableIndex) pkFromFlat(flat []keyenc.Value) (eq, sortv []keyenc.Value) {
	eq = make([]keyenc.Value, len(ti.priEqPos))
	for i, p := range ti.priEqPos {
		eq[i] = flat[p]
	}
	sortv = make([]keyenc.Value, len(ti.priSortPos))
	for i, p := range ti.priSortPos {
		sortv[i] = flat[p]
	}
	return eq, sortv
}

// pkEncodingFromFlat is TableDef.pkEncoding computed from a decoded
// entry instead of a row.
func (ti *tableIndex) pkEncodingFromFlat(flat []keyenc.Value) string {
	var buf []byte
	for _, p := range ti.pkPos {
		buf = keyenc.Append(buf, flat[p])
	}
	return string(buf)
}

// coversOrdinals reports whether the index carries every listed table
// column — the covered-query test.
func (ti *tableIndex) coversOrdinals(ords []int) bool {
	for _, o := range ords {
		if ti.valPos[o] < 0 {
			return false
		}
	}
	return true
}

// IndexStoragePrefix returns the shared-storage prefix of one index of a
// table: the primary ("") under tbl/<t>/idx, secondaries under
// tbl/<t>/idx2/<name>.
func IndexStoragePrefix(table, index string) string {
	if index == "" {
		return "tbl/" + table + "/idx"
	}
	return "tbl/" + table + "/idx2/" + index
}

// specEqual compares two index specs structurally.
func specEqual(a, b IndexSpec) bool {
	eq := func(x, y []string) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return a.HashBits == b.HashBits && eq(a.Equality, b.Equality) &&
		eq(a.Sort, b.Sort) && eq(a.Included, b.Included)
}

// ---- Index catalog -------------------------------------------------
//
// The catalog persists the table's index set — the primary spec plus
// every secondary declaration — so that recovery restores the full set
// from shared storage alone (§5.5), including secondaries created online
// after the engine first started. Like index meta records, the catalog is
// a sequenced record (storage.LoadRecord, storage.WriteRecord).

// IndexCatalogEntry is one catalog record: the declared spec of one
// index. Name "" is the primary.
type IndexCatalogEntry struct {
	Name string
	Spec IndexSpec
}

const catalogMagic = "UMZICAT1"

func catalogPrefix(table string) string { return "tbl/" + table + "/catalog/" }

func appendCatalogString(out []byte, s string) []byte {
	out = binary.BigEndian.AppendUint16(out, uint16(len(s)))
	return append(out, s...)
}

func appendCatalogGroup(out []byte, cols []string) []byte {
	out = binary.BigEndian.AppendUint16(out, uint16(len(cols)))
	for _, c := range cols {
		out = appendCatalogString(out, c)
	}
	return out
}

func encodeIndexCatalog(entries []IndexCatalogEntry) []byte {
	out := append([]byte(nil), catalogMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(entries)))
	for _, e := range entries {
		out = appendCatalogString(out, e.Name)
		out = append(out, e.Spec.HashBits)
		out = appendCatalogGroup(out, e.Spec.Equality)
		out = appendCatalogGroup(out, e.Spec.Sort)
		out = appendCatalogGroup(out, e.Spec.Included)
	}
	return out
}

// catalogReader decodes a catalog record; after the first truncation
// every read returns a zero value and err holds the failure.
type catalogReader struct {
	data []byte
	off  int
	err  error
}

// take returns the next n bytes, or nil once the record is truncated.
func (r *catalogReader) take(n int) []byte {
	if r.err == nil && r.off+n > len(r.data) {
		r.err = fmt.Errorf("wildfire: truncated index catalog")
	}
	if r.err != nil {
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *catalogReader) u16() int {
	if b := r.take(2); b != nil {
		return int(binary.BigEndian.Uint16(b))
	}
	return 0
}

func (r *catalogReader) str() string { return string(r.take(r.u16())) }

func (r *catalogReader) group() []string {
	var out []string
	for i, n := 0, r.u16(); i < n && r.err == nil; i++ {
		out = append(out, r.str())
	}
	return out
}

func decodeIndexCatalog(data []byte) ([]IndexCatalogEntry, error) {
	if len(data) < 12 || string(data[:8]) != catalogMagic {
		return nil, fmt.Errorf("wildfire: bad index catalog record")
	}
	n := int(binary.BigEndian.Uint32(data[8:12]))
	r := &catalogReader{data: data, off: 12}
	var out []IndexCatalogEntry
	for i := 0; i < n && r.err == nil; i++ {
		e := IndexCatalogEntry{Name: r.str()}
		if b := r.take(1); b != nil {
			e.Spec.HashBits = b[0]
		}
		e.Spec.Equality = r.group()
		e.Spec.Sort = r.group()
		e.Spec.Included = r.group()
		out = append(out, e)
	}
	if r.err == nil && r.off != len(data) {
		r.err = fmt.Errorf("wildfire: index catalog has %d trailing bytes", len(data)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

// LoadIndexCatalog reads the newest valid catalog record of a table from
// shared storage, returning (nil, 0, nil) when the table has never
// written one (pre-catalog tables recover as primary-only). seq is the
// newest listed record sequence, so writers can continue the sequence.
// Objects that exist but none of which decodes are an error: falling
// back to the primary-only set would drop online-created secondaries.
func LoadIndexCatalog(store storage.ObjectStore, table string) ([]IndexCatalogEntry, uint64, error) {
	entries, seq, ok, err := storage.LoadRecord(store, catalogPrefix(table), decodeIndexCatalog)
	if err != nil {
		return nil, 0, fmt.Errorf("wildfire: loading catalog of %s: %w", table, err)
	}
	if !ok && seq > 0 {
		return nil, seq, fmt.Errorf("wildfire: table %s has catalog objects but no readable record", table)
	}
	return entries, seq, nil
}

// writeCatalogLocked persists the current index set as a fresh catalog
// record. Callers hold e.indexMu.
func (e *shard) writeCatalogLocked() error {
	var entries []IndexCatalogEntry
	for _, ti := range e.indexSet() {
		entries = append(entries, IndexCatalogEntry{Name: ti.name, Spec: ti.declared})
	}
	// A failed prune leaves only superseded records; the next write retries it.
	_, err := storage.WriteRecord(e.store, catalogPrefix(e.table.Name), e.catalogSeq.Add(1), encodeIndexCatalog(entries))
	return err
}

// ---- Shard-side set management ------------------------------------

// indexSet returns the current index set; element 0 is the primary. The
// slice is immutable (copy-on-write installs).
func (e *shard) indexSet() []*tableIndex { return *e.indexes.Load() }

// lookupIndex resolves an index by name; "" is the primary.
func (e *shard) lookupIndex(name string) (*tableIndex, error) {
	for _, ti := range e.indexSet() {
		if ti.name == name {
			return ti, nil
		}
	}
	return nil, fmt.Errorf("wildfire: table %s has no index %q", e.table.Name, name)
}

// secondarySpecs returns the declared spec of every secondary, in
// creation order.
func (e *shard) secondarySpecs() []SecondaryIndexSpec {
	var out []SecondaryIndexSpec
	for _, ti := range e.indexSet() {
		if !ti.primary() {
			out = append(out, SecondaryIndexSpec{Name: ti.name, IndexSpec: ti.declared})
		}
	}
	return out
}

// openTableIndex opens (or creates) the core index of one set member.
func (e *shard) openTableIndex(name string, declared IndexSpec) (*tableIndex, error) {
	ti := newTableIndex(e.table, e.ixSpec, name, declared, nil)
	ixCfg := e.tuning
	ixCfg.Name = IndexStoragePrefix(e.table.Name, name)
	ixCfg.Def = indexDefFor(e.table, ti.spec)
	ixCfg.Store = e.store
	ixCfg.Cache = e.cache
	idx, err := core.Open(ixCfg)
	if err != nil {
		return nil, fmt.Errorf("wildfire: opening index %q: %w", name, err)
	}
	ti.idx = idx
	return ti, nil
}

// createIndex builds a new secondary index online from the existing
// zones and adds it to the set: the post-groomed zone is adopted
// wholesale (one bootstrap run over the published post-groomed blocks,
// watermark fast-forwarded to the engine's PSN), the pending groomed
// blocks get one run each, and the index joins the catalog so recovery
// and every subsequent groom/post-groom/evolve cycle maintain it.
// It holds the writer mutex, so grooming, post-grooming and evolve are
// blocked for the duration; queries are not.
func (e *shard) createIndex(spec SecondaryIndexSpec) error {
	if e.closed.Load() {
		return fmt.Errorf("wildfire: engine closed")
	}
	if err := spec.Validate(e.table); err != nil {
		return err
	}
	e.writerMu.Lock()
	defer e.writerMu.Unlock()
	e.indexMu.Lock()
	defer e.indexMu.Unlock()
	// Re-check under indexMu: Close tears the set down holding it, so a
	// create that observes closed==false here is ordered before the
	// teardown and its index will be closed by Close, not leaked.
	if e.closed.Load() {
		return fmt.Errorf("wildfire: engine closed")
	}

	for _, ti := range e.indexSet() {
		if ti.name == spec.Name {
			// Idempotent on an identical declaration, so a sharded
			// CreateIndex that failed partway can be retried: shards
			// that already built the index fall through here while the
			// stragglers backfill. The catalog is rewritten even here —
			// if the original attempt failed between publishing the
			// index and persisting the catalog, the retry must not
			// report success while leaving the index unrecoverable.
			if specEqual(ti.declared, spec.IndexSpec) {
				return e.writeCatalogLocked()
			}
			return fmt.Errorf("wildfire: table %s already has an index %q with a different spec", e.table.Name, spec.Name)
		}
	}

	// Wipe leftovers of an interrupted earlier build: the index is not in
	// the set (nor the catalog), so any objects under its prefix are a
	// partial build with no readers.
	prefix := IndexStoragePrefix(e.table.Name, spec.Name)
	if stale, err := e.store.List(prefix + "/"); err == nil {
		for _, n := range stale {
			_ = e.store.Delete(n)
		}
	}

	ti, err := e.openTableIndex(spec.Name, spec.IndexSpec)
	if err != nil {
		return err
	}

	// Backfill the post-groomed zone: every record version in a published
	// post-groomed block, as one bootstrap run.
	v := e.zone.Load()
	if v.maxPSN > 0 {
		ids := make([]uint64, len(v.post))
		for i, pb := range v.post {
			ids[i] = pb.id
		}
		entries, err := e.entriesFromBlocks(ti, types.ZonePostGroomed, ids)
		if err != nil {
			ti.idx.Close()
			return err
		}
		if err := ti.idx.BootstrapPostZone(v.maxPSN, entries, v.consumedHi); err != nil {
			ti.idx.Close()
			return err
		}
	}

	// Backfill the groomed zone: one run per pending groomed block, in
	// groom order (BuildRun prepends, so ascending builds yield the
	// newest-first list).
	for _, id := range v.pending {
		entries, err := e.entriesFromBlocks(ti, types.ZoneGroomed, []uint64{id})
		if err != nil {
			ti.idx.Close()
			return err
		}
		if err := ti.idx.BuildRun(entries, types.BlockRange{Min: id, Max: id}); err != nil {
			ti.idx.Close()
			return err
		}
	}

	// Publish: from here grooms, evolves, recovery and queries all see
	// the new index.
	cur := e.indexSet()
	set := make([]*tableIndex, 0, len(cur)+1)
	set = append(set, cur...)
	set = append(set, ti)
	e.indexes.Store(&set)
	return e.writeCatalogLocked()
}

// entriesFromBlocks builds one index's entries for the listed data
// blocks of a zone, in block order. It reads only the index's own
// columns and beginTS, numeric columns a column at a time.
func (e *shard) entriesFromBlocks(ti *tableIndex, zone types.ZoneID, blockIDs []uint64) ([]run.Entry, error) {
	var entries []run.Entry
	nUser := len(e.table.Columns)
	cols := slices.Concat(ti.eqIdx, ti.sortIdx, ti.inclIdx)
	nEq, nKey := len(ti.eqIdx), len(ti.eqIdx)+len(ti.sortIdx)
	vals := make([]keyenc.Value, len(cols)) // one row's values, reused
	nums := make([][]uint64, len(cols))
	var beginTS []uint64
	for _, id := range blockIDs {
		name := postBlockName(e.table.Name, id)
		if zone == types.ZoneGroomed {
			name = groomedBlockName(e.table.Name, id)
		}
		blk, err := e.fetchBlock(context.Background(), name)
		if err != nil {
			return nil, fmt.Errorf("wildfire: indexing %s: %w", name, err)
		}
		beginTS = blk.AppendNums(nUser, beginTS[:0])
		for i, c := range cols {
			if e.table.Columns[c].Kind.Fixed() {
				nums[i] = blk.AppendNums(c, nums[i][:0])
			}
		}
		entries = slices.Grow(entries, len(beginTS))
		for r, ts := range beginTS {
			for i, c := range cols {
				switch kind := e.table.Columns[c].Kind; kind {
				case keyenc.KindInt64:
					vals[i] = keyenc.I64(int64(nums[i][r]))
				case keyenc.KindUint64:
					vals[i] = keyenc.U64(nums[i][r])
				case keyenc.KindFloat64:
					vals[i] = keyenc.F64(math.Float64frombits(nums[i][r]))
				case keyenc.KindBool:
					vals[i] = keyenc.B(nums[i][r] != 0)
				default:
					vals[i] = blk.Value(r, c)
				}
			}
			rid := types.RID{Zone: zone, Block: id, Offset: uint32(r)}
			entry, err := ti.idx.MakeEntry(vals[:nEq], vals[nEq:nKey], vals[nKey:], types.TS(ts), rid)
			if err != nil {
				return nil, err
			}
			entries = append(entries, entry)
		}
	}
	return entries, nil
}
