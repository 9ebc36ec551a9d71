package loopnest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
)

// AppendFingerprint appends a canonical binary identity of the algorithm to
// dst and returns the extended slice. The identity covers everything that
// determines an algorithm's behavior: its name, dimension names, datapath
// width, representative sample space, and — per tensor — name, relevance
// set, output flag, and the footprint evaluated at a deterministic set of
// probe tiles. The footprint is encoded by its values at the probes, not
// by its subscript terms, so the identity stays the one every stored
// surrogate, atlas entry and model-store manifest was stamped with when
// footprints were closures, and those files still load. The tiles include
// all-equal tiles (which separate halo extents like X'+R'-1 from products
// like X'·R') and per-dimension spikes (which recover each dimension's
// marginal contribution). Two algorithms with equal
// fingerprints are indistinguishable to the map space, the cost models,
// and the surrogate's encoders at every probed tile — the contract the
// dataset and surrogate files rely on to refuse cross-workload loads.
func (a *Algorithm) AppendFingerprint(dst []byte) []byte {
	appendInt := func(v int) {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	appendStr := func(s string) {
		appendInt(len(s))
		dst = append(dst, s...)
	}
	appendStr(a.Name)
	appendInt(len(a.DimNames))
	for _, d := range a.DimNames {
		appendStr(d)
	}
	appendInt(a.OperandsPerMAC)
	appendInt(len(a.SampleSpace))
	for _, vals := range a.SampleSpace {
		appendInt(len(vals))
		for _, v := range vals {
			appendInt(v)
		}
	}
	probes := fingerprintTiles(a.NumDims())
	appendInt(len(a.Tensors))
	for i := range a.Tensors {
		t := &a.Tensors[i]
		appendStr(t.Name)
		appendInt(len(t.Dims))
		for _, d := range t.Dims {
			appendInt(d)
		}
		if t.Output {
			appendInt(1)
		} else {
			appendInt(0)
		}
		for _, tile := range probes {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(t.Footprint(tile)))
		}
	}
	return dst
}

// fingerprintTiles returns the deterministic probe tiles AppendFingerprint
// evaluates footprints at: the all-1s/2s/3s tiles plus, per dimension, the
// all-1s tile with that dimension spiked to 5.
func fingerprintTiles(d int) [][]int {
	fill := func(v int) []int {
		t := make([]int, d)
		for i := range t {
			t[i] = v
		}
		return t
	}
	tiles := [][]int{fill(1), fill(2), fill(3)}
	for i := 0; i < d; i++ {
		t := fill(1)
		t[i] = 5
		tiles = append(tiles, t)
	}
	return tiles
}

// registeredFPs caches the Fingerprint of each registered algorithm
// (*Algorithm → string). A registered algorithm is immutable, so its
// identity is hashed once; any other algorithm hashes itself per call.
var registeredFPs sync.Map

// Fingerprint returns the hex SHA-256 of AppendFingerprint — the stable,
// printable workload identity stamped into dataset and surrogate files.
func (a *Algorithm) Fingerprint() string {
	if fp, ok := registeredFPs.Load(a); ok {
		return fp.(string)
	}
	sum := sha256.Sum256(a.AppendFingerprint(nil))
	fp := hex.EncodeToString(sum[:])
	regMu.RLock()
	registered := registry[a.Name] == a
	regMu.RUnlock()
	if registered {
		registeredFPs.Store(a, fp)
	}
	return fp
}
