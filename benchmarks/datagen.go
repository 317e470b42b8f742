package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sync/atomic"

	"umzi"
)

// The events table is IoT-shaped like the paper's §8.4 workload:
//
//	events(device i64, msg i64, ts i64, region string, status i64,
//	       value f64, payload string)
//
// Keys are numbered in arrival order: key k is (device k%devices,
// msg k/devices), so every device's messages keep growing and one
// device's consecutive messages spread over many groom cycles. Every
// non-key column is a pure function of (key, version), which is what
// makes the oracle cheap: it stores one version and one last-write
// timestamp per key.

const (
	tableName    = "events"
	numRegions   = 16
	numStatuses  = 8
	payloadLen   = 40
	regionLen    = 9                            // "region-NN"
	userRowBytes = 5*8 + regionLen + payloadLen // Σ(8 per numeric + len(string))

	colDevice  = 0
	colMsg     = 1
	colTS      = 2
	colRegion  = 3
	colStatus  = 4
	colValue   = 5
	colPayload = 6
)

var regionNames = func() [numRegions]string {
	var out [numRegions]string
	for i := range out {
		out[i] = "region-" + string(rune('0'+i/10)) + string(rune('0'+i%10))
	}
	return out
}()

func eventsTable() umzi.TableDef {
	return umzi.TableDef{
		Name: tableName,
		Columns: []umzi.TableColumn{
			{Name: "device", Kind: umzi.KindInt64},
			{Name: "msg", Kind: umzi.KindInt64},
			{Name: "ts", Kind: umzi.KindInt64},
			{Name: "region", Kind: umzi.KindString},
			{Name: "status", Kind: umzi.KindInt64},
			{Name: "value", Kind: umzi.KindFloat64},
			{Name: "payload", Kind: umzi.KindString},
		},
		PrimaryKey: []string{"device", "msg"},
		ShardKey:   []string{"device"},
	}
}

func eventsIndex() umzi.IndexSpec {
	return umzi.IndexSpec{Equality: []string{"device"}, Sort: []string{"msg"}, Included: []string{"value"}}
}

func eventsSecondary() umzi.SecondaryIndexSpec {
	return umzi.SecondaryIndexSpec{Name: "by_region", IndexSpec: umzi.IndexSpec{Equality: []string{"region"}, Sort: []string{"ts"}}}
}

// mix is splitmix64's finalizer: the per-(key, version) hash every
// derived column is cut from.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// oracle is the seeded model the driver checks every result against.
// version and lastTS are read by the analyst while the writer updates
// them in htap_mixed, hence the atomics.
type oracle struct {
	seed    uint64
	devices int64
	version []atomic.Uint32 // 0 = never written
	lastTS  []atomic.Int64
	keys    atomic.Int64 // keys written so far: [0, keys) all exist
	writes  atomic.Int64 // rows written so far (inserts + updates); also the ts clock
}

func newOracle(seed uint64, devices int64, capacity int) *oracle {
	return &oracle{seed: seed, devices: devices,
		version: make([]atomic.Uint32, capacity), lastTS: make([]atomic.Int64, capacity)}
}

func (o *oracle) keyOf(device, msg int64) int64 { return msg*o.devices + device }
func (o *oracle) deviceOf(key int64) int64      { return key % o.devices }
func (o *oracle) msgOf(key int64) int64         { return key / o.devices }

func (o *oracle) hash(key int64, version uint32) uint64 {
	return mix(o.seed ^ mix(uint64(key)<<20|uint64(version)))
}

// regionOf depends on the version too, so an update moves the row in the
// secondary index and leaves a superseded entry behind for back-checks.
func (o *oracle) regionOf(key int64, version uint32) int {
	return int(o.hash(key, version) >> 8 % numRegions)
}
func (o *oracle) statusOf(key int64, version uint32) int64 {
	return int64(o.hash(key, version) >> 16 % numStatuses)
}

// valueOf is integral and below 2^20, so every SUM is exact in float64
// whatever order the executor adds in.
func (o *oracle) valueOf(key int64, version uint32) float64 {
	return float64(o.hash(key, version) >> 24 % (1 << 20))
}

const hexDigits = "0123456789abcdef"

// payloadOf carries the key and version in hex, so a reader can check a
// row against f(key, version) without knowing which version it should
// see (htap_mixed reads while the writer runs).
func (o *oracle) payloadOf(key int64, version uint32) []byte {
	buf := make([]byte, payloadLen)
	h := o.hash(key, version)
	put := func(off int, v uint64, n int) {
		for i := n - 1; i >= 0; i-- {
			buf[off+i] = hexDigits[v&15]
			v >>= 4
		}
	}
	put(0, uint64(key), 12)
	put(12, uint64(version), 8)
	put(20, h, 16)
	copy(buf[36:], "-pad")
	return buf
}

func payloadVersion(p []byte) (uint32, bool) {
	if len(p) != payloadLen {
		return 0, false
	}
	var v uint32
	for _, c := range p[12:20] {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// row materializes one version of one key with the given write
// timestamp.
func (o *oracle) row(key int64, version uint32, ts int64) umzi.Row {
	return umzi.Row{
		umzi.I64(o.deviceOf(key)),
		umzi.I64(o.msgOf(key)),
		umzi.I64(ts),
		umzi.Str(regionNames[o.regionOf(key, version)]),
		umzi.I64(o.statusOf(key, version)),
		umzi.F64(o.valueOf(key, version)),
		umzi.Raw(o.payloadOf(key, version)),
	}
}

// batchGen produces the commit batches of one run. Each row is an
// update with probability updateFrac once enough keys exist; updated
// keys follow the paper's update-rate model — recent keys are updated
// more often — as an exponential look-back whose mean is 5% of the keys
// written so far.
type batchGen struct {
	o          *oracle
	rng        *rand.Rand
	updateFrac float64
	inBatch    map[int64]struct{}
	opHash     uint64 // FNV-1a over every (key, version) issued, in order
}

func newBatchGen(o *oracle, seed uint64, updateFrac float64) *batchGen {
	return &batchGen{o: o, rng: rand.New(rand.NewSource(int64(mix(seed ^ 0xba7c4)))),
		updateFrac: updateFrac, inBatch: make(map[int64]struct{}), opHash: 14695981039346656037}
}

// next builds one batch of n rows and advances the oracle: after next
// returns, the oracle describes the table as it will be once the batch
// commits. extra rows (freshness markers) are appended by the caller.
func (g *batchGen) next(n int) []umzi.Row {
	o := g.o
	rows := make([]umzi.Row, 0, n+1)
	clear(g.inBatch)
	for i := 0; i < n; i++ {
		keys := o.keys.Load()
		key := keys
		if keys > 64 && g.rng.Float64() < g.updateFrac {
			back := int64(g.rng.ExpFloat64() * 0.05 * float64(keys))
			if back >= keys {
				back = keys - 1
			}
			key = keys - 1 - back
			if _, dup := g.inBatch[key]; dup {
				key = keys // a second write of one key in one commit would be ambiguous
			}
		}
		if key == keys {
			o.keys.Store(keys + 1)
		}
		g.inBatch[key] = struct{}{}
		rows = append(rows, g.write(key))
	}
	return rows
}

// write issues the next version of key.
func (g *batchGen) write(key int64) umzi.Row {
	o := g.o
	version := o.version[key].Load() + 1
	ts := o.writes.Add(1)
	o.version[key].Store(version)
	o.lastTS[key].Store(ts)
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(key))
	binary.LittleEndian.PutUint32(b[8:], version)
	for _, c := range b {
		g.opHash = (g.opHash ^ uint64(c)) * 1099511628211
	}
	return o.row(key, version, ts)
}

// aggExpect is the oracle's answer to the analytical queries.
type aggExpect struct {
	count [numRegions]int64
	sum   [numRegions]float64
}

func (a *aggExpect) totals() (count int64, sum float64) {
	for i := range a.count {
		count += a.count[i]
		sum += a.sum[i]
	}
	return
}

// expectAgg groups the live version of every key with lastTS >= cutoff
// by region.
func (o *oracle) expectAgg(cutoff int64) *aggExpect {
	var a aggExpect
	keys := o.keys.Load()
	for k := int64(0); k < keys; k++ {
		if o.lastTS[k].Load() < cutoff {
			continue
		}
		v := o.version[k].Load()
		r := o.regionOf(k, v)
		a.count[r]++
		a.sum[r] += o.valueOf(k, v)
	}
	return &a
}

// checkRow verifies a full row against f(key, version). wantVersion 0
// accepts whatever version the payload names, up to the newest issued.
func (o *oracle) checkRow(row []umzi.Value, wantVersion uint32) bool {
	if len(row) != 7 {
		return false
	}
	key := o.keyOf(row[colDevice].Int(), row[colMsg].Int())
	if key < 0 || key >= o.keys.Load() {
		return false
	}
	version, ok := payloadVersion(row[colPayload].Bytes())
	if !ok || version == 0 || version > o.version[key].Load() {
		return false
	}
	if wantVersion != 0 && version != wantVersion {
		return false
	}
	return row[colValue].Float() == o.valueOf(key, version) &&
		row[colStatus].Int() == o.statusOf(key, version) &&
		string(row[colRegion].Bytes()) == regionNames[o.regionOf(key, version)] &&
		string(row[colPayload].Bytes()) == string(o.payloadOf(key, version))
}

// seedOf folds the -seed flag and a stream name into one generator seed.
func seedOf(seed int64, stream string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return mix(uint64(seed)) ^ h.Sum64()
}

// isFinite guards metric values before they reach JSON.
func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
