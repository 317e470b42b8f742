// Package types holds the small shared primitives of the Umzi/Wildfire
// reproduction: record identifiers, zone identifiers, hybrid begin
// timestamps, groomed-block-ID ranges and post-groom sequence numbers.
//
// These types sit below every other package (keyenc, run, core, wildfire)
// and deliberately contain no behaviour beyond encoding, comparison and
// formatting, so that the dependency graph stays a clean DAG.
package types

import (
	"encoding/binary"
	"fmt"
)

// ZoneID identifies a data organization zone of the HTAP system. The paper
// presents Umzi with two indexed zones (groomed and post-groomed) plus the
// unindexed live zone, but the structure generalizes to any number of zones
// (§3); ZoneID is an ordinal so additional zones can be configured.
type ZoneID uint8

// The zones of Wildfire's data lifecycle (Figure 1 of the paper).
const (
	// ZoneLive holds freshly committed, not-yet-groomed data. It is not
	// covered by the index (§3): the groomer runs every second, so the
	// live zone stays small and is scanned directly.
	ZoneLive ZoneID = 0
	// ZoneGroomed holds groomed blocks: columnar, shard-key organized,
	// with monotonic beginTS assigned by the groomer.
	ZoneGroomed ZoneID = 1
	// ZonePostGroomed holds post-groomed blocks: partition-key organized,
	// larger, with endTS/prevRID resolved.
	ZonePostGroomed ZoneID = 2
)

// String implements fmt.Stringer.
func (z ZoneID) String() string {
	switch z {
	case ZoneLive:
		return "live"
	case ZoneGroomed:
		return "groomed"
	case ZonePostGroomed:
		return "post-groomed"
	default:
		return fmt.Sprintf("zone(%d)", uint8(z))
	}
}

// RID identifies the exact location of an indexed record. Following
// footnote 2 of the paper, an RID is the combination of zone, block ID and
// record offset; when data evolves between zones the RID changes, which is
// why Umzi migrates index entries rather than assuming fixed RIDs.
type RID struct {
	Zone   ZoneID
	Block  uint64 // block ID within the zone
	Offset uint32 // record ordinal within the block
}

// RIDSize is the fixed wire size of an encoded RID.
const RIDSize = 1 + 8 + 4

// EncodeRID appends the 13-byte wire form of r to dst and returns the
// extended slice.
func EncodeRID(dst []byte, r RID) []byte {
	var buf [RIDSize]byte
	buf[0] = byte(r.Zone)
	binary.BigEndian.PutUint64(buf[1:9], r.Block)
	binary.BigEndian.PutUint32(buf[9:13], r.Offset)
	return append(dst, buf[:]...)
}

// DecodeRID decodes an RID from the first RIDSize bytes of b.
func DecodeRID(b []byte) (RID, error) {
	if len(b) < RIDSize {
		return RID{}, fmt.Errorf("types: short RID: %d bytes", len(b))
	}
	return RID{
		Zone:   ZoneID(b[0]),
		Block:  binary.BigEndian.Uint64(b[1:9]),
		Offset: binary.BigEndian.Uint32(b[9:13]),
	}, nil
}

// String implements fmt.Stringer.
func (r RID) String() string {
	return fmt.Sprintf("%s/%d:%d", r.Zone, r.Block, r.Offset)
}

// IsZero reports whether r is the zero RID. The zero RID is reserved as
// "no record" (e.g. prevRID of the first version of a key).
func (r RID) IsZero() bool { return r == RID{} }

// TS is a multi-version timestamp. Wildfire composes beginTS from two
// parts (§2.1): the high-order part is the groomer's timestamp and the
// low-order part is the transaction commit time within the shard's
// committed log, which effectively postpones commit time to groom time
// while keeping beginTS monotonically increasing across groom cycles.
type TS uint64

// MaxTS is the largest timestamp; queries at MaxTS see all versions.
const MaxTS = TS(^uint64(0))

const tsCommitBits = 24

// MakeTS builds a hybrid timestamp from a groom-cycle sequence number and a
// per-cycle commit sequence. commitSeq must fit in 24 bits (16M commits per
// groom cycle); higher bits are truncated defensively.
func MakeTS(groomSeq uint64, commitSeq uint32) TS {
	return TS(groomSeq<<tsCommitBits | uint64(commitSeq)&(1<<tsCommitBits-1))
}

// GroomSeq extracts the groom-cycle part of the timestamp.
func (t TS) GroomSeq() uint64 { return uint64(t) >> tsCommitBits }

// CommitSeq extracts the per-cycle commit sequence part of the timestamp.
func (t TS) CommitSeq() uint32 { return uint32(uint64(t) & (1<<tsCommitBits - 1)) }

// String implements fmt.Stringer.
func (t TS) String() string {
	if t == MaxTS {
		return "ts(max)"
	}
	return fmt.Sprintf("ts(%d.%d)", t.GroomSeq(), t.CommitSeq())
}

// PSN is a post-groom sequence number. Each post-groom operation is tagged
// with a PSN; the indexer tracks IndexedPSN and applies index evolve
// operations strictly in PSN order (§5.4, Figure 5).
type PSN uint64

// BlockRange is an inclusive range [Min,Max] of groomed block IDs. Every
// index run is labeled with the range of groomed blocks it covers, in both
// zones: post-groomed runs keep the groomed-block range of the data they
// were evolved from so that coverage can be decided with a single integer
// comparison (§5.4).
type BlockRange struct {
	Min, Max uint64
}

// Contains reports whether id falls inside the range.
func (r BlockRange) Contains(id uint64) bool { return r.Min <= id && id <= r.Max }

// Covers reports whether r fully covers o.
func (r BlockRange) Covers(o BlockRange) bool { return r.Min <= o.Min && o.Max <= r.Max }

// Overlaps reports whether the two ranges intersect.
func (r BlockRange) Overlaps(o BlockRange) bool { return r.Min <= o.Max && o.Min <= r.Max }

// Len returns the number of block IDs in the range.
func (r BlockRange) Len() uint64 {
	if r.Max < r.Min {
		return 0
	}
	return r.Max - r.Min + 1
}

// Union returns the smallest range covering both r and o.
func (r BlockRange) Union(o BlockRange) BlockRange {
	u := r
	if o.Min < u.Min {
		u.Min = o.Min
	}
	if o.Max > u.Max {
		u.Max = o.Max
	}
	return u
}

// String implements fmt.Stringer.
func (r BlockRange) String() string { return fmt.Sprintf("[%d-%d]", r.Min, r.Max) }
