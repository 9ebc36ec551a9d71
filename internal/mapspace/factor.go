package mapspace

import (
	"math"
	"sort"
)

// Divisors returns the positive divisors of n in ascending order.
func Divisors(n int) []int {
	if n < 1 {
		return nil
	}
	var out []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
			if other := n / d; other != d {
				out = append(out, other)
			}
		}
	}
	sort.Ints(out)
	return out
}

// FactorChain is an ordered 4-way factorization of a dimension size into
// the per-band tile factors (L1 temporal, spatial, L2 temporal, DRAM
// temporal). The product of the four entries equals the dimension size.
type FactorChain [4]int

// Positions within a FactorChain.
const (
	ChainL1 = iota
	ChainSpatial
	ChainL2
	ChainDRAM
)

// Product returns the product of the chain's factors.
func (c FactorChain) Product() int {
	return c[0] * c[1] * c[2] * c[3]
}

// Logs returns the base-2 logarithms of the chain's factors.
func (c FactorChain) Logs() [4]float64 {
	var out [4]float64
	for i, f := range c {
		out[i] = math.Log2(float64(f))
	}
	return out
}

// EnumerateChains returns every ordered 4-way factorization of n. The count
// is the multiplicative function ∏ C(e_i+3, 3) over n's prime-power
// exponents — a few hundred entries for the dimension sizes in Table 1.
// Each call re-enumerates; map-space code reads chains through the shared
// per-size table instead (Space.Chains), which holds them in this order.
func EnumerateChains(n int) []FactorChain {
	if n < 1 {
		return nil
	}
	divs := Divisors(n)
	var out []FactorChain
	for _, a := range divs {
		rem1 := n / a
		for _, b := range Divisors(rem1) {
			rem2 := rem1 / b
			for _, c := range Divisors(rem2) {
				out = append(out, FactorChain{a, b, c, rem2 / c})
			}
		}
	}
	return out
}

// smallestPrimeFactor returns the smallest prime dividing n, or 1 for n<=1.
func smallestPrimeFactor(n int) int {
	if n <= 1 {
		return 1
	}
	for p := 2; p*p <= n; p++ {
		if n%p == 0 {
			return p
		}
	}
	return n
}
