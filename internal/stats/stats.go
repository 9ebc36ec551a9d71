// Package stats provides small statistical utilities shared across the
// repository: running moments, z-score normalization of datasets, geometric
// means, and deterministic RNG construction.
//
// Everything here is deliberately dependency-free; the surrogate training
// pipeline (input whitening, output normalization) and the experiment
// harness (geomean summary ratios) are the primary consumers.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// NewRNG returns a deterministic pseudo-random generator seeded with seed.
// All stochastic components in this repository (map-space sampling, search
// methods, NN weight init) take an explicit *rand.Rand so experiments are
// reproducible run-to-run.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: geomean of empty slice")
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geomean requires positive values, got %v", x)
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// Running accumulates streaming mean and variance using Welford's algorithm.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x into the running statistics.
func (r *Running) Add(x float64) {
	r.n++
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the number of samples observed.
func (r *Running) N() int { return r.n }

// Mean returns the running mean.
func (r *Running) Mean() float64 { return r.mean }

// Var returns the running population variance.
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// Std returns the running population standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// Normalizer applies per-dimension z-score normalization fitted on a
// dataset, as used for the surrogate's input whitening and output cost
// normalization (paper §4.1.2-§4.1.3: "each value ... normalized to have
// mean 0, standard deviation 1 with respect to the corresponding values" in
// the training set).
type Normalizer struct {
	Mean []float64
	Std  []float64
}

// FitNormalizer computes per-column mean and standard deviation over rows.
// Columns with zero variance get Std 1 so normalization is a no-op there.
func FitNormalizer(rows [][]float64) (*Normalizer, error) {
	if len(rows) == 0 {
		return nil, errors.New("stats: cannot fit normalizer on empty dataset")
	}
	dim := len(rows[0])
	acc := make([]Running, dim)
	for i, row := range rows {
		if len(row) != dim {
			return nil, fmt.Errorf("stats: row %d has %d values, want %d", i, len(row), dim)
		}
		for d, v := range row {
			acc[d].Add(v)
		}
	}
	n := &Normalizer{Mean: make([]float64, dim), Std: make([]float64, dim)}
	for d := range acc {
		n.Mean[d] = acc[d].Mean()
		s := acc[d].Std()
		if s == 0 || math.IsNaN(s) {
			s = 1
		}
		n.Std[d] = s
	}
	return n, nil
}

// Dim returns the number of columns the normalizer was fitted on.
func (n *Normalizer) Dim() int { return len(n.Mean) }

// Apply z-scores row in place and returns it.
func (n *Normalizer) Apply(row []float64) []float64 {
	for d := range row {
		row[d] = (row[d] - n.Mean[d]) / n.Std[d]
	}
	return row
}

// Applied returns a z-scored copy of row.
func (n *Normalizer) Applied(row []float64) []float64 {
	out := append([]float64(nil), row...)
	return n.Apply(out)
}

// InvertOne undoes normalization for a single column value.
func (n *Normalizer) InvertOne(col int, v float64) float64 {
	return v*n.Std[col] + n.Mean[col]
}
