package search

import (
	"math/rand"

	"mindmappings/internal/nn"
)

// newTestMLP builds a small network for unit tests of RL internals.
func newTestMLP(rng *rand.Rand) (*nn.MLP, error) {
	return nn.NewMLP([]int{2, 4, 2}, rng)
}
