package main

import (
	"math"
	"sort"
	"time"
)

// samples collects the latencies of one operation class, tagged with
// the read round they were taken in so the per-round spread — the
// in-run noise — can be printed next to the pooled median.
type samples struct {
	ns    []float64
	round []int
}

func (s *samples) add(d time.Duration, round int) {
	s.ns = append(s.ns, float64(d))
	s.round = append(s.round, round)
}

func (s *samples) count() int { return len(s.ns) }

// percentile is nearest-rank on a sorted copy: the smallest value with
// at least p% of the samples at or below it.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// medianOrZero is median for counts that may have no samples at all.
func medianOrZero(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return median(vals)
}

// tailPercentile picks the highest of the usual tail percentiles that
// still has at least ten samples beyond it, so a quoted tail is never
// one or two outliers. With fewer than twenty samples it is the median.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 10000 × 0.1% is 9.99…98 in floats
			return p
		}
	}
	return 50
}

// summary is what a latency cell reports besides its median.
type summary struct {
	N         int       `json:"n"`
	P50       float64   `json:"p50"`
	TailPct   float64   `json:"tail_pct"`
	Tail      float64   `json:"tail"`
	RoundP50s []float64 `json:"round_p50s,omitempty"`
	// RoundSpread is (max-min)/median of the per-round medians.
	RoundSpread float64 `json:"round_spread,omitempty"`
}

// summarize pools every sample; scale converts nanoseconds to the
// cell's unit.
func (s *samples) summarize(scale float64) summary { return summarizeBy(s.ns, s.round, scale) }

// summarizeBy pools vals (divided by scale) and, to show in-run noise,
// also takes the median of each round. rounds[i] is the round vals[i]
// was taken in; nil means every value already is one round's.
func summarizeBy(vals []float64, rounds []int, scale float64) summary {
	out := summary{N: len(vals)}
	if out.N == 0 {
		return out
	}
	out.P50 = median(vals) / scale
	out.TailPct = tailPercentile(out.N)
	out.Tail = percentile(vals, out.TailPct) / scale
	byRound := map[int][]float64{}
	for i, v := range vals {
		round := i
		if rounds != nil {
			round = rounds[i]
		}
		byRound[round] = append(byRound[round], v)
	}
	if len(byRound) > 1 {
		order := make([]int, 0, len(byRound))
		for r := range byRound {
			order = append(order, r)
		}
		sort.Ints(order)
		for _, r := range order {
			out.RoundP50s = append(out.RoundP50s, median(byRound[r])/scale)
		}
		out.RoundSpread = spread(out.RoundP50s)
	}
	return out
}

// spread is (max-min)/median.
func spread(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	m := median(vals)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

// pacer is an open-loop schedule: operation i is due at start + i/rate,
// whatever happened to the operations before it. Latency is counted
// from the due time, so a stall charges every operation it delays, and
// lateness — how far behind its schedule the generator ran — is kept so
// a generator that cannot hold its rate is visible.
type pacer struct {
	start    time.Time
	interval time.Duration
	late     []float64 // ns behind schedule at each send
}

func newPacer(start time.Time, perSecond float64) *pacer {
	return &pacer{start: start, interval: time.Duration(float64(time.Second) / perSecond)}
}

func (p *pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

// wait sleeps until operation i is due and returns its due time. now is
// injectable for tests.
func (p *pacer) wait(i int, now func() time.Time, sleep func(time.Duration)) time.Time {
	due := p.due(i)
	if d := due.Sub(now()); d > 0 {
		sleep(d)
	}
	late := now().Sub(due)
	if late < 0 {
		late = 0
	}
	p.late = append(p.late, float64(late))
	return due
}
