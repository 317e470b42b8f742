// Package core implements Umzi itself: the unified multi-version,
// multi-zone LSM-like index of §3–§7 of the paper.
//
// An Index maintains one run list per zone (groomed and post-groomed),
// chained through atomic pointers so that queries are lock-free and
// non-blocking while maintenance operations — index build (§5.2), merge
// under the hybrid K/T policy (§5.3), and the three-step evolve operation
// that migrates entries between zones (§5.4) — splice the lists under
// short-duration per-zone locks. Runs persist in append-only shared
// storage and are cached block-by-block in a local SSD cache; merge
// outputs inside the groomed zone (levels 1 and up) are never persisted,
// which cuts shared-storage write amplification (§6.1). Recovery rebuilds
// the run lists from shared storage alone (§5.5). An Index starts no
// goroutines: build and evolve arrive from the table's propagation
// owner, merges and cache adjustment from its index maintainer.
package core

import (
	"fmt"

	"umzi/internal/keyenc"
	"umzi/internal/run"
	"umzi/internal/storage"
)

// Column names one indexed column and its type.
type Column struct {
	Name string
	Kind keyenc.Kind
}

// IndexDef declares an Umzi index (§4.1): equality columns answer equality
// predicates through the hash column and offset array, sort columns answer
// range predicates, and included columns ride along to enable index-only
// plans. Leaving Equality empty yields a pure range index; leaving Sort
// empty yields a pure hash index.
type IndexDef struct {
	Equality []Column
	Sort     []Column
	Included []Column
	// HashBits sizes the per-run offset array at 2^HashBits buckets.
	// Zero selects DefaultHashBits when equality columns exist.
	HashBits uint8
}

// DefaultHashBits is the offset-array width used when HashBits is zero.
const DefaultHashBits = 10

// RunDef lowers the definition to the run package's representation.
func (d IndexDef) RunDef() run.Def {
	rd := run.Def{HashBits: d.HashBits}
	for _, c := range d.Equality {
		rd.EqualityKinds = append(rd.EqualityKinds, c.Kind)
	}
	for _, c := range d.Sort {
		rd.SortKinds = append(rd.SortKinds, c.Kind)
	}
	for _, c := range d.Included {
		rd.IncludedKinds = append(rd.IncludedKinds, c.Kind)
	}
	if rd.HashBits == 0 && len(rd.EqualityKinds) > 0 {
		rd.HashBits = DefaultHashBits
	}
	return rd
}

// Validate checks the definition.
func (d IndexDef) Validate() error {
	seen := map[string]bool{}
	for _, group := range [][]Column{d.Equality, d.Sort, d.Included} {
		for _, c := range group {
			if c.Name == "" {
				return fmt.Errorf("core: empty column name")
			}
			if seen[c.Name] {
				return fmt.Errorf("core: duplicate column %q", c.Name)
			}
			seen[c.Name] = true
		}
	}
	return d.RunDef().Validate()
}

// Config configures an Index. Zero values select the documented defaults.
type Config struct {
	// Name prefixes every storage object of this index instance; one name
	// per table shard (§3: one Umzi instance per table shard).
	Name string
	// Def is the index definition.
	Def IndexDef
	// Store is the shared storage backend (required).
	Store storage.ObjectStore
	// Cache is the local SSD block cache; nil disables SSD caching so
	// every purged read goes to shared storage.
	Cache *storage.SSDCache
	// BlockSize is the target data-block size (default run.DefaultBlockSize).
	BlockSize int
	// K is the maximum number of inactive runs a level holds before they
	// merge into the next level (§5.3). Default 4.
	K int
	// T is the size ratio that seals an active run (§5.3). Default 4.
	T int
	// GroomedLevels and PostGroomedLevels assign levels to zones (§4.3).
	// Defaults: 6 and 4 (the paper's example: levels 0–5 groomed, 6–9
	// post-groomed).
	GroomedLevels     int
	PostGroomedLevels int
	// DisableSynopsis turns off run pruning (ablation benches only).
	DisableSynopsis bool
	// DisableOffsetArray builds runs without offset arrays (ablation).
	DisableOffsetArray bool
}

// withDefaults returns a copy with defaults applied, or an error on an
// unusable configuration.
func (c Config) withDefaults() (Config, error) {
	if c.Name == "" {
		return c, fmt.Errorf("core: Config.Name is required")
	}
	if c.Store == nil {
		return c, fmt.Errorf("core: Config.Store is required")
	}
	if err := c.Def.Validate(); err != nil {
		return c, err
	}
	if c.BlockSize <= 0 {
		c.BlockSize = run.DefaultBlockSize
	}
	if c.K <= 0 {
		c.K = 4
	}
	if c.T <= 0 {
		c.T = 4
	}
	if c.GroomedLevels <= 0 {
		c.GroomedLevels = 6
	}
	if c.PostGroomedLevels <= 0 {
		c.PostGroomedLevels = 4
	}
	return c, nil
}
