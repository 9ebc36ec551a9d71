package workload_test

// Identity tests: the registry's spec-compiled cnn-layer / mttkrp / conv1d
// must be behaviorally indistinguishable from the hand-coded constructors
// they replaced (PR acceptance contract). The replicas below are verbatim
// copies of the removed loopnest constructors; the tests prove equal
// fingerprints, equal footprints on random tiles, and bit-equal costs on
// random mappings under the reference cost model.

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	_ "mindmappings/internal/timeloop" // register the reference backend
	"mindmappings/internal/workload"   // also registers the built-in workloads
)

// CNN dimension indices (paper Equation 3).
const (
	cnnN = iota
	cnnK
	cnnC
	cnnX
	cnnY
	cnnR
	cnnS
)

// handCodedCNNLayer is the removed loopnest.CNNLayer constructor, verbatim.
func handCodedCNNLayer() *loopnest.Algorithm {
	return &loopnest.Algorithm{
		Name:           "cnn-layer",
		DimNames:       []string{"N", "K", "C", "X", "Y", "R", "S"},
		OperandsPerMAC: 2,
		Tensors: []loopnest.Tensor{
			{
				Name: "Weights",
				Dims: []int{cnnK, cnnC, cnnR, cnnS},
				Footprint: func(t []int) int64 {
					return int64(t[cnnK]) * int64(t[cnnC]) * int64(t[cnnR]) * int64(t[cnnS])
				},
			},
			{
				Name: "Inputs",
				Dims: []int{cnnN, cnnC, cnnX, cnnY, cnnR, cnnS},
				Footprint: func(t []int) int64 {
					h := int64(t[cnnX] + t[cnnR] - 1)
					w := int64(t[cnnY] + t[cnnS] - 1)
					return int64(t[cnnN]) * int64(t[cnnC]) * h * w
				},
			},
			{
				Name:   "Outputs",
				Dims:   []int{cnnN, cnnK, cnnX, cnnY},
				Output: true,
				Footprint: func(t []int) int64 {
					return int64(t[cnnN]) * int64(t[cnnK]) * int64(t[cnnX]) * int64(t[cnnY])
				},
			},
		},
		SampleSpace: [][]int{
			{1, 2, 4, 8, 16, 32},
			{32, 48, 64, 96, 128, 192, 256, 512},
			{16, 32, 64, 96, 128, 192, 256, 384},
			{7, 12, 13, 14, 26, 27, 28, 54, 56},
			{7, 12, 13, 14, 26, 27, 28, 54, 56},
			{1, 3, 5, 7},
			{1, 3, 5, 7},
		},
	}
}

// handCodedMTTKRP is the removed loopnest.MTTKRP constructor, verbatim.
func handCodedMTTKRP() *loopnest.Algorithm {
	const (
		dimI = iota
		dimJ
		dimK
		dimL
	)
	return &loopnest.Algorithm{
		Name:           "mttkrp",
		DimNames:       []string{"I", "J", "K", "L"},
		OperandsPerMAC: 3,
		Tensors: []loopnest.Tensor{
			{
				Name: "A",
				Dims: []int{dimI, dimK, dimL},
				Footprint: func(t []int) int64 {
					return int64(t[dimI]) * int64(t[dimK]) * int64(t[dimL])
				},
			},
			{
				Name: "B",
				Dims: []int{dimK, dimJ},
				Footprint: func(t []int) int64 {
					return int64(t[dimK]) * int64(t[dimJ])
				},
			},
			{
				Name: "C",
				Dims: []int{dimL, dimJ},
				Footprint: func(t []int) int64 {
					return int64(t[dimL]) * int64(t[dimJ])
				},
			},
			{
				Name:   "O",
				Dims:   []int{dimI, dimJ},
				Output: true,
				Footprint: func(t []int) int64 {
					return int64(t[dimI]) * int64(t[dimJ])
				},
			},
		},
		SampleSpace: [][]int{
			{64, 128, 256, 512, 1024, 2048},
			{256, 512, 1024, 2048, 4096},
			{128, 256, 512, 1024, 2048, 4096},
			{128, 256, 512, 1024, 2048, 4096},
		},
	}
}

// handCodedConv1D is the removed loopnest.Conv1D constructor, verbatim.
func handCodedConv1D() *loopnest.Algorithm {
	const (
		dimX = iota
		dimR
	)
	return &loopnest.Algorithm{
		Name:           "conv1d",
		DimNames:       []string{"X", "R"},
		OperandsPerMAC: 2,
		Tensors: []loopnest.Tensor{
			{
				Name: "F",
				Dims: []int{dimR},
				Footprint: func(t []int) int64 {
					return int64(t[dimR])
				},
			},
			{
				Name: "I",
				Dims: []int{dimX, dimR},
				Footprint: func(t []int) int64 {
					return int64(t[dimX] + t[dimR] - 1)
				},
			},
			{
				Name:   "O",
				Dims:   []int{dimX},
				Output: true,
				Footprint: func(t []int) int64 {
					return int64(t[dimX])
				},
			},
		},
		SampleSpace: [][]int{
			{64, 128, 256, 512, 1024, 2048, 4096},
			{2, 3, 4, 5, 7, 8, 9, 16},
		},
	}
}

func classics() map[string]*loopnest.Algorithm {
	return map[string]*loopnest.Algorithm{
		"cnn-layer": handCodedCNNLayer(),
		"mttkrp":    handCodedMTTKRP(),
		"conv1d":    handCodedConv1D(),
	}
}

// TestSpecCompiledFingerprintIdentity: equal fingerprints — the strongest
// structural claim, covering names, dims, relevance sets (including
// order), output flags, sample spaces, and probed footprints.
func TestSpecCompiledFingerprintIdentity(t *testing.T) {
	for name, hand := range classics() {
		compiled, err := loopnest.AlgorithmByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := compiled.Fingerprint(), hand.Fingerprint(); got != want {
			t.Errorf("%s: spec-compiled fingerprint %.16s… != hand-coded %.16s…", name, got, want)
		}
	}
}

// TestSpecCompiledFootprintIdentity: equal footprints on random tiles well
// beyond the fingerprint's probe set.
func TestSpecCompiledFootprintIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, hand := range classics() {
		compiled, err := loopnest.AlgorithmByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			tile := make([]int, hand.NumDims())
			for d := range tile {
				tile[d] = 1 + rng.Intn(64)
			}
			for i := range hand.Tensors {
				hf := hand.Tensors[i].Footprint(tile)
				cf := compiled.Tensors[i].Footprint(tile)
				if hf != cf {
					t.Fatalf("%s tensor %s tile %v: hand %d, compiled %d",
						name, hand.Tensors[i].Name, tile, hf, cf)
				}
			}
		}
	}
}

// TestSpecCompiledCostIdentity: bit-equal reference-model costs on random
// mappings — the end-to-end guarantee that searches over the compiled
// algorithms see the exact cost surface the hand-coded ones defined.
func TestSpecCompiledCostIdentity(t *testing.T) {
	for name, hand := range classics() {
		compiled, err := loopnest.AlgorithmByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a := arch.Default(len(hand.Tensors) - 1)
		shape := make([]int, hand.NumDims())
		for d := range shape {
			vals := hand.SampleSpace[d]
			shape[d] = vals[0]
		}
		handProb := loopnest.Problem{Algo: hand, Name: name, Shape: shape}
		compProb, err := compiled.NewProblem(name, shape)
		if err != nil {
			t.Fatal(err)
		}
		handSpace, err := mapspace.New(a, handProb)
		if err != nil {
			t.Fatal(err)
		}
		compSpace, err := mapspace.New(a, compProb)
		if err != nil {
			t.Fatal(err)
		}
		handModel, err := costmodel.New("", a, handProb)
		if err != nil {
			t.Fatal(err)
		}
		compModel, err := costmodel.New("", a, compProb)
		if err != nil {
			t.Fatal(err)
		}
		// Identical seeds must produce identical random mappings (the map
		// spaces are the same space) and bit-identical costs.
		handRng := rand.New(rand.NewSource(42))
		compRng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 50; trial++ {
			hm := handSpace.Random(handRng)
			cm := compSpace.Random(compRng)
			hc, err := costmodel.Evaluate(nil, handModel, &hm)
			if err != nil {
				t.Fatal(err)
			}
			cc, err := costmodel.Evaluate(nil, compModel, &cm)
			if err != nil {
				t.Fatal(err)
			}
			if hc.EDP != cc.EDP || hc.TotalEnergyPJ != cc.TotalEnergyPJ || hc.Cycles != cc.Cycles {
				t.Fatalf("%s trial %d: hand (EDP %v, E %v, cyc %v) != compiled (EDP %v, E %v, cyc %v)",
					name, trial, hc.EDP, hc.TotalEnergyPJ, hc.Cycles, cc.EDP, cc.TotalEnergyPJ, cc.Cycles)
			}
			// Cross-evaluate: the compiled model must also accept the
			// hand-space mapping verbatim.
			xc, err := costmodel.Evaluate(nil, compModel, &hm)
			if err != nil {
				t.Fatal(err)
			}
			if xc.EDP != hc.EDP {
				t.Fatalf("%s trial %d: cross-evaluated EDP %v != %v", name, trial, xc.EDP, hc.EDP)
			}
		}
	}
}

// TestFingerprintHashedOnceMatchesFreshHash pins the cached identity of
// registered workloads: each is hashed once, and the cached value must
// equal a fresh hash of AppendFingerprint. An inline einsum, compiled per
// request and never registered, still hashes itself on every call.
func TestFingerprintHashedOnceMatchesFreshHash(t *testing.T) {
	fresh := func(a *loopnest.Algorithm) string {
		sum := sha256.Sum256(a.AppendFingerprint(nil))
		return hex.EncodeToString(sum[:])
	}
	for _, name := range workload.Names() {
		a := loopnest.MustAlgorithm(name)
		want := fresh(a)
		for call := 1; call <= 2; call++ {
			if got := a.Fingerprint(); got != want {
				t.Fatalf("%s call %d: %s, fresh hash %s", name, call, got, want)
			}
		}
	}
	inline, err := workload.CompileInline("O[m,n] += A[m,k] * B[k,n]")
	if err != nil {
		t.Fatal(err)
	}
	before := inline.Fingerprint()
	if want := fresh(inline); before != want {
		t.Fatalf("inline einsum: %s, fresh hash %s", before, want)
	}
	inline.OperandsPerMAC++
	if got := inline.Fingerprint(); got != fresh(inline) || got == before {
		t.Fatalf("changed inline einsum: %s (was %s), fresh hash %s", got, before, fresh(inline))
	}
}
