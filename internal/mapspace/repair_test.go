package mapspace

import (
	"math"
	"math/rand"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
)

// corruptAlloc breaks one or two of m's allocations: out of [0,1] or NaN,
// a level over-summed, or a tensor's share cut below its footprint.
func corruptAlloc(rng *rand.Rand, s *Space, m *Mapping) {
	for k := 1 + rng.Intn(2); k > 0; k-- {
		level := arch.Level(rng.Intn(arch.OnChipLevels))
		alloc := m.Alloc[level]
		t := rng.Intn(s.NumTensors())
		switch rng.Intn(3) {
		case 0:
			switch rng.Intn(3) {
			case 0:
				alloc[t] = -rng.Float64()
			case 1:
				alloc[t] = 1 + rng.Float64()
			case 2:
				alloc[t] = math.NaN()
			}
		case 1:
			scale := 1 + 2*rng.Float64()
			for i := range alloc {
				alloc[i] *= scale
			}
		case 2:
			alloc[t] *= 0.5 * rng.Float64()
		}
	}
}

// sameBits reports whether a and b are the same mapping, allocations
// compared bit for bit.
func sameBits(a, b *Mapping) bool {
	ints := func(x, y []int) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	for l := range a.Tile {
		if !ints(a.Tile[l], b.Tile[l]) || !ints(a.Order[l], b.Order[l]) {
			return false
		}
	}
	if !ints(a.Spatial, b.Spatial) {
		return false
	}
	for l := range a.Alloc {
		if len(a.Alloc[l]) != len(b.Alloc[l]) {
			return false
		}
		for t := range a.Alloc[l] {
			if math.Float64bits(a.Alloc[l][t]) != math.Float64bits(b.Alloc[l][t]) {
				return false
			}
		}
	}
	return true
}

// TestAllocOnlyRepairMatchesProjection: on every registered workload,
// repair of a mapping with broken allocations is bit-identical to the full
// projection (desiredFrom + projectInto), whether it takes the
// allocation-only path or not, and repair reports true exactly when the
// input is a member. A quarter of the mappings also get a tiling move, so
// footprint violations of tilings that no longer fit, and spatial-budget
// violations, are among them.
func TestAllocOnlyRepairMatchesProjection(t *testing.T) {
	const perWorkload = 2000
	rng := rand.New(rand.NewSource(17))
	for _, name := range loopnest.AlgorithmNames() {
		algo := loopnest.MustAlgorithm(name)
		a := arch.Default(len(algo.Tensors) - 1)
		var spaces []*Space
		for tries := 0; len(spaces) < 4 && tries < 100; tries++ {
			if s, err := New(a, algo.RandomProblem(rng)); err == nil {
				spaces = append(spaces, s)
			}
		}
		if len(spaces) == 0 {
			t.Fatalf("%s: no random problem has a map space", name)
		}
		allocOnly, members := 0, 0
		for i := 0; i < perWorkload; i++ {
			s := spaces[i%len(spaces)]
			m := s.Random(rng)
			corruptAlloc(rng, s, &m)
			if rng.Intn(4) == 0 {
				s.moveFactorBetweenBands(rng, &m)
			}

			ws := getScratch()
			ws.blk = grow(ws.blk, blockLen(s.NumTensors()))
			s.fill(&m, ws.blk, allDims)
			if allocRule(s.verdict(&m).rule) && s.fitsBuffers(ws.blk[1:]) {
				allocOnly++
			}
			want := m.Clone()
			s.desiredFrom(ws, &want)
			s.projectInto(ws, &want, false)
			putScratch(ws)

			member := s.IsMember(&m) == nil
			got := m.Clone()
			if wasValid := s.repair(&got, change{}); wasValid != member {
				t.Fatalf("%s mapping %d: repair reported valid=%v, IsMember nil=%v", name, i, wasValid, member)
			}
			if member {
				members++
				want = m // repair leaves a member untouched
			}
			if !sameBits(&got, &want) {
				t.Fatalf("%s mapping %d: repair\n%s\nprojection\n%s", name, i, got.String(), want.String())
			}
		}
		if allocOnly < perWorkload/4 {
			t.Fatalf("%s: only %d of %d mappings took the allocation-only path", name, allocOnly, perWorkload)
		}
		t.Logf("%s: %d allocation-only repairs, %d members, of %d", name, allocOnly, members, perWorkload)
	}
}

// A NaN allocation is out of range: check rejects it (a NaN share once
// passed every comparison, so IsMember accepted it and the cost model
// scored NaN EDP), and repair clamps it to 0 and tops the level up.
func TestRepairRejectsNaNAllocation(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		m := s.Random(rng)
		level := arch.Level(rng.Intn(arch.OnChipLevels))
		m.Alloc[level][rng.Intn(s.NumTensors())] = math.NaN()
		if v := s.verdict(&m); v.rule != ruleAllocRange {
			t.Fatalf("mapping %d: NaN allocation fails rule %v, want ruleAllocRange", i, v.rule)
		}
		if s.repair(&m, change{}) {
			t.Fatalf("mapping %d: repair reported a NaN allocation valid", i)
		}
		if err := s.IsMember(&m); err != nil {
			t.Fatalf("mapping %d: repaired mapping is no member: %v", i, err)
		}
	}
}
