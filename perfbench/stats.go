package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"sort"
	"time"

	"repro/internal/report"
)

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks (the definition numpy and Python's statistics module use
// with "inclusive" ranking). It sorts a copy; NaN for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.NaN()
	for _, x := range xs {
		if math.IsNaN(m) || x > m {
			m = x
		}
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tableDigest fingerprints a result's tables. The wall time and the rest
// of the envelope are excluded: only the rendered numbers must repeat.
func tableDigest(res *report.Result) string {
	b, err := json.Marshal(res.Tables)
	if err != nil {
		// Tables hold only marshalable cells.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// spanUnion returns how much of [lo, hi) the given intervals cover.
func spanUnion(lo, hi time.Time, spans [][2]time.Time) time.Duration {
	var clipped [][2]time.Time
	for _, s := range spans {
		a, b := s[0], s[1]
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			clipped = append(clipped, [2]time.Time{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0].Before(clipped[j][0]) })
	var covered time.Duration
	var curLo, curHi time.Time
	for i, s := range clipped {
		if i == 0 || s[0].After(curHi) {
			covered += curHi.Sub(curLo)
			curLo, curHi = s[0], s[1]
			continue
		}
		if s[1].After(curHi) {
			curHi = s[1]
		}
	}
	return covered + curHi.Sub(curLo)
}
