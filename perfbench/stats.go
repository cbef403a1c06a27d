package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (q in [0, 1]); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// seconds converts durations to float seconds, scaled by unit (1 for
// seconds, 1e3 for milliseconds, 1e6 for microseconds).
func seconds(ds []time.Duration, unit float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * unit
	}
	return out
}

// summary is a repeated measurement: its median, interquartile spread
// and sample count, as the report line records it.
type summary struct {
	Median float64 `json:"median"`
	Spread float64 `json:"iqr_over_median"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	return summary{Median: median(xs), Spread: spread(xs), N: len(xs)}
}

// hmean is the harmonic mean of positive values.
func hmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var inv float64
	for _, x := range xs {
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}
