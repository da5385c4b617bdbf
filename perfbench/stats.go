package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// tailFloor is the number of samples that must lie beyond a percentile
// before it is reported: a tail estimate resting on fewer points moves with
// single outliers.
const tailFloor = 10

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as Python's statistics.quantiles with
// method="inclusive"). xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the q-quantile of xs only when at least tailFloor samples lie
// strictly beyond it in rank, i.e. when (1-q)·n ≥ tailFloor.
func tail(xs []float64, q float64) (float64, error) {
	beyond := int(math.Floor((1-q)*float64(len(xs)) + 1e-9))
	if beyond < tailFloor {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			100*q, len(xs), beyond, tailFloor)
	}
	return quantile(xs, q), nil
}

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

// metricName is the result format's rule for metric names.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects one run's values. set takes the unit from the catalogue
// and rejects undeclared names and non-finite values, so a typo or a NaN
// fails the run instead of producing a result line nobody can read.
type metrics struct {
	m   map[string]metric
	err error
}

func newMetrics() *metrics { return &metrics{m: make(map[string]metric)} }

func (ms *metrics) set(name string, v float64) {
	unit := unitOf(endToEnd, name)
	if unit == "" {
		unit = unitOf(perLayer(), name)
	}
	switch {
	case unit == "":
		ms.fail(fmt.Errorf("metric %s is not declared", name))
	case math.IsNaN(v) || math.IsInf(v, 0):
		ms.fail(fmt.Errorf("metric %s is %v", name, v))
	default:
		ms.m[name] = metric{Value: v, Unit: unit}
	}
}

func (ms *metrics) fail(err error) {
	if ms.err == nil {
		ms.err = err
	}
}

// selectDeclared returns exactly the metrics named by ds, failing when one
// of them was not measured or an earlier set failed.
func (ms *metrics) selectDeclared(ds []decl) (map[string]metric, error) {
	out := make(map[string]metric, len(ds))
	for _, d := range ds {
		v, ok := ms.m[d.name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = v
	}
	return out, ms.err
}
