package telemetry

import (
	"sync/atomic"
	"time"
)

// DefaultBuckets are the latency histogram's upper bounds: 18 edges from
// 100µs to 60s, roughly 2.5x apart. Fixed buckets make every quantile
// derivable from counters alone — no sampling, no reservoir, no lock —
// at the cost of quantiles quantized to bucket resolution, which is
// exactly the trade a serving dashboard wants. Durations beyond the last
// edge land in an overflow bucket whose "upper bound" is reported as the
// last edge (a request slower than a minute is an outage, not a datum).
var DefaultBuckets = []time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
	30 * time.Second,
	60 * time.Second,
}

// Histogram is a fixed-bucket latency histogram safe for arbitrary
// concurrent Observe calls: every mutation is one atomic add, so the
// serving hot path never takes a lock for telemetry. Snapshots are
// weakly consistent (buckets are read one atomic at a time), which is
// fine for monotone counters: a snapshot taken during traffic is some
// valid recent past, and after traffic quiesces it is exact.
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Int64 // len(bounds)+1; the extra slot is overflow
	sum    atomic.Int64   // nanoseconds, for mean latency
}

// NewHistogram returns a histogram over DefaultBuckets.
func NewHistogram() *Histogram {
	return &Histogram{
		bounds: DefaultBuckets,
		counts: make([]atomic.Int64, len(DefaultBuckets)+1),
	}
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// Count reports the total number of observations (the sum of every
// bucket, read bucket by bucket — exact once observers quiesce).
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Bucket is one histogram bucket on the wire: the cumulative upper bound
// in milliseconds and the (non-cumulative) count of observations at or
// under it but over the previous bound.
type Bucket struct {
	LEMillis float64 `json:"le_ms"`
	Count    int64   `json:"count"`
}

// HistogramSnapshot is the JSON form of a histogram plus the derived
// quantiles every dashboard actually wants.
type HistogramSnapshot struct {
	Count      int64    `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
	P50Millis  float64  `json:"p50_ms"`
	P90Millis  float64  `json:"p90_ms"`
	P99Millis  float64  `json:"p99_ms"`
	Buckets    []Bucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current counts and derives
// p50/p90/p99. withBuckets includes the per-bucket breakdown (the
// /v1/metrics endpoint does; compact summaries skip it).
func (h *Histogram) Snapshot(withBuckets bool) HistogramSnapshot {
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{
		Count:      total,
		SumSeconds: time.Duration(h.sum.Load()).Seconds(),
		P50Millis:  quantile(h.bounds, counts, total, 0.50),
		P90Millis:  quantile(h.bounds, counts, total, 0.90),
		P99Millis:  quantile(h.bounds, counts, total, 0.99),
	}
	if withBuckets {
		s.Buckets = make([]Bucket, 0, len(counts))
		for i, c := range counts {
			if c == 0 {
				continue // keep the wire form dense; bounds are fixed anyway
			}
			s.Buckets = append(s.Buckets, Bucket{LEMillis: boundMillis(h.bounds, i), Count: c})
		}
	}
	return s
}

// quantile returns the p-quantile in milliseconds, linearly interpolated
// within the bucket the rank lands in (the lower edge of the first
// bucket is treated as 0). Zero observations yield 0.
func quantile(bounds []time.Duration, counts []int64, total int64, p float64) float64 {
	if total == 0 {
		return 0
	}
	rank := float64(p * float64(total))
	var cum int64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = float64(bounds[i-1]) / float64(time.Millisecond)
		}
		hi := boundMillis(bounds, i)
		frac := (rank - float64(prev)) / float64(c)
		return lo + float64((hi-lo)*frac)
	}
	return boundMillis(bounds, len(counts)-1)
}

// boundMillis is bucket i's upper bound in milliseconds; the overflow
// bucket reports the last finite edge.
func boundMillis(bounds []time.Duration, i int) float64 {
	if i >= len(bounds) {
		i = len(bounds) - 1
	}
	return float64(bounds[i]) / float64(time.Millisecond)
}
