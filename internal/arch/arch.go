// Package arch describes the programmable hardware accelerator the paper
// evaluates (§5.1.2, Figure 2): a grid of processing elements (PEs), a
// two-level on-chip buffer hierarchy whose banks can be flexibly allocated
// to any tensor, a network-on-chip that can multicast along any problem
// dimension, and DRAM behind it all.
package arch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Level identifies a storage level of the accelerator hierarchy, innermost
// first.
type Level int

// The three storage levels of the evaluated accelerator. L1 is the private
// per-PE buffer, L2 the shared on-chip buffer, DRAM the off-chip memory.
const (
	L1 Level = iota
	L2
	DRAM
	NumLevels
)

// OnChipLevels is the number of allocatable on-chip buffer levels (L1, L2).
const OnChipLevels = 2

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case DRAM:
		return "DRAM"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Spec is a complete accelerator parameterization.
type Spec struct {
	Name string
	// NumPEs is the number of processing elements available for spatial
	// parallelism. Each PE performs one MAC per cycle.
	NumPEs int
	// L1BytesPerPE is the private buffer capacity of each PE.
	L1BytesPerPE int
	// L2Bytes is the shared buffer capacity.
	L2Bytes int
	// Banks is the number of allocatable banks per on-chip level; buffer
	// allocations are quantized to bank granularity when counting the map
	// space, though the cost model accepts continuous fractions (paper §3:
	// "a 3-tuple indicating the percentage of banks allocated").
	Banks int
	// WordBytes is the datatype width in bytes.
	WordBytes int
	// EnergyPerAccess is the energy in picojoules to move one word across
	// each level boundary (index by Level).
	EnergyPerAccess [NumLevels]float64
	// MACEnergyPJ is the energy of one multiply-accumulate.
	MACEnergyPJ float64
	// BandwidthWords is the aggregate words-per-cycle each level can
	// deliver (index by Level). L1 bandwidth is aggregate across PEs.
	BandwidthWords [NumLevels]float64
	// ClockHz is the accelerator frequency.
	ClockHz float64
	// OperandsPerMAC is the PE datapath width: how many input operands are
	// consumed per cycle (2 for the CNN accelerator, 3 for MTTKRP; §5.1.2).
	OperandsPerMAC int
}

// Validate checks the specification for physical plausibility.
func (s *Spec) Validate() error {
	if s.NumPEs < 1 {
		return fmt.Errorf("arch: %d PEs", s.NumPEs)
	}
	if s.L1BytesPerPE < 1 || s.L2Bytes < 1 {
		return fmt.Errorf("arch: buffer sizes %d/%d", s.L1BytesPerPE, s.L2Bytes)
	}
	if s.Banks < 1 {
		return fmt.Errorf("arch: %d banks", s.Banks)
	}
	if s.WordBytes < 1 {
		return fmt.Errorf("arch: word size %d", s.WordBytes)
	}
	for l := L1; l < NumLevels; l++ {
		if s.EnergyPerAccess[l] <= 0 {
			return fmt.Errorf("arch: energy per access at %s is %v", l, s.EnergyPerAccess[l])
		}
		if s.BandwidthWords[l] <= 0 {
			return fmt.Errorf("arch: bandwidth at %s is %v", l, s.BandwidthWords[l])
		}
	}
	if s.MACEnergyPJ <= 0 {
		return errors.New("arch: non-positive MAC energy")
	}
	if s.ClockHz <= 0 {
		return errors.New("arch: non-positive clock")
	}
	if s.OperandsPerMAC < 1 {
		return fmt.Errorf("arch: %d operands per MAC", s.OperandsPerMAC)
	}
	return nil
}

// AppendFingerprint appends a canonical binary encoding of every Spec
// field to dst and returns the extended slice. Two specs differing in any
// field produce different fingerprints, and equal specs always produce
// identical bytes, so the fingerprint is a stable identity component
// (evaluator fingerprints embed it, which keeps cached evaluations of the
// same mapping on different accelerators apart) without fmt-style
// reflection or its allocations.
func (s *Spec) AppendFingerprint(dst []byte) []byte {
	appendInt := func(v int) {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	appendFloat := func(v float64) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	// Length-prefix the name so ("ab", 1PE) can never collide with a
	// hypothetical name ending in the first bytes of the next field.
	appendInt(len(s.Name))
	dst = append(dst, s.Name...)
	appendInt(s.NumPEs)
	appendInt(s.L1BytesPerPE)
	appendInt(s.L2Bytes)
	appendInt(s.Banks)
	appendInt(s.WordBytes)
	for l := L1; l < NumLevels; l++ {
		appendFloat(s.EnergyPerAccess[l])
		appendFloat(s.BandwidthWords[l])
	}
	appendFloat(s.MACEnergyPJ)
	appendFloat(s.ClockHz)
	appendInt(s.OperandsPerMAC)
	return dst
}

// LevelBytes returns the capacity of an on-chip level (L1 is per-PE).
func (s *Spec) LevelBytes(l Level) int {
	switch l {
	case L1:
		return s.L1BytesPerPE
	case L2:
		return s.L2Bytes
	}
	return 0
}

// LevelWords returns the word capacity of an on-chip level.
func (s *Spec) LevelWords(l Level) int {
	return s.LevelBytes(l) / s.WordBytes
}

// EnergyPerWordOnce returns the energy to touch one word once at every
// level of the inclusive hierarchy — the unit the paper's algorithmic
// minimum is built from (§4.1.3, Appendix A).
func (s *Spec) EnergyPerWordOnce() float64 {
	total := 0.0
	for l := L1; l < NumLevels; l++ {
		total += s.EnergyPerAccess[l]
	}
	return total
}

// Edge returns a deployment-constrained variant of the paper's accelerator
// (64 PEs, 16 KB private buffers, 128 KB shared, narrower memory), used by
// the architecture-generality study: Mind Mappings claims to generalize
// "over different algorithms, architectures, and target problems" (§5.4.3),
// so the same machinery must work unchanged on a different Spec.
func Edge(operandsPerMAC int) Spec {
	s := Default(operandsPerMAC)
	s.Name = "edge-64pe"
	s.NumPEs = 64
	s.L1BytesPerPE = 16 * 1024
	s.L2Bytes = 128 * 1024
	s.Banks = 32
	s.BandwidthWords = [NumLevels]float64{
		L1:   float64((operandsPerMAC + 2) * 64),
		L2:   32,
		DRAM: 8,
	}
	return s
}

// Default returns the accelerator evaluated in the paper (§5.1.2): 256 PEs,
// 64 KB private buffers, a 512 KB shared buffer, 1 GHz, specialized to
// consume operandsPerMAC operands per cycle. Access energies follow the
// usual ~order-of-magnitude ladder between register-file-class storage,
// large on-chip SRAM and DRAM for 16-bit words.
func Default(operandsPerMAC int) Spec {
	return Spec{
		Name:         "paper-256pe",
		NumPEs:       256,
		L1BytesPerPE: 64 * 1024,
		L2Bytes:      512 * 1024,
		Banks:        64,
		WordBytes:    2,
		EnergyPerAccess: [NumLevels]float64{
			L1:   1.0,   // pJ, small private SRAM
			L2:   8.0,   // pJ, large shared SRAM
			DRAM: 200.0, // pJ, off-chip
		},
		MACEnergyPJ: 0.5,
		BandwidthWords: [NumLevels]float64{
			L1:   768, // aggregate: 3 words/cycle/PE
			L2:   64,
			DRAM: 16,
		},
		ClockHz:        1e9,
		OperandsPerMAC: operandsPerMAC,
	}
}
