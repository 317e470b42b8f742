package wildfire

import "sync/atomic"

// queryGate is a two-slot epoch-based reclamation gate. Queries enter and
// exit without locks; the reclaimer advances the epoch only when the
// previous epoch's readers have drained, so an item tagged with epoch T
// is safe to reclaim once the current epoch reaches T+2 — every query
// that could have observed it has finished by then.
//
// This is how the engine honors the paper's "deprecated and eventually
// deleted" for groomed data blocks (§5.4) without ever blocking a reader:
// a retired block's storage object and cached decode are deleted only
// once the epoch of its retirement drains, so a query that resolved a
// groomed RID before then can still read it.
type queryGate struct {
	epoch  atomic.Uint64
	active [2]atomic.Int64
}

// enter registers a query and returns its epoch token.
func (g *queryGate) enter() uint64 {
	for {
		e := g.epoch.Load()
		g.active[e%2].Add(1)
		if g.epoch.Load() == e {
			return e
		}
		// The epoch advanced between the load and the registration; our
		// count may sit in a slot the reclaimer considers draining.
		// Re-register under the new epoch.
		g.active[e%2].Add(-1)
	}
}

// exit deregisters a query entered with token e.
func (g *queryGate) exit(e uint64) { g.active[e%2].Add(-1) }

// tryAdvance moves the epoch forward if the previous epoch's queries have
// drained; it reports whether the epoch advanced.
func (g *queryGate) tryAdvance() bool {
	e := g.epoch.Load()
	if g.active[(e+1)%2].Load() != 0 { // slot of epoch e-1
		return false
	}
	return g.epoch.CompareAndSwap(e, e+1)
}

// current returns the current epoch.
func (g *queryGate) current() uint64 { return g.epoch.Load() }
