package mapspace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
)

// The golden test pins the exact output streams of the map-space routines
// — every RNG draw, every nearest-chain tie-break, every allocation bit —
// so that performance work on sampling and projection is provably
// bit-identical. Each digest was recorded from the implementation that
// re-enumerated chains and recomputed their logarithms on every call; the
// chain tables must reproduce it unchanged.
//
// Registering a new workload adds spaces: pin their digests (the failure
// message prints the line to add) rather than editing existing ones. A
// changed digest for an existing space means a routine's observable
// behavior changed.

// goldenOps names the five digested op streams, in goldenDigests order.
var goldenOps = [5]string{"random", "perturb", "crossover", "mutate", "decode"}

// goldenDigests maps a space name to the truncated sha256 of each op
// stream's mappings.
var goldenDigests = map[string][5]string{
	"attention-score/small":   {"b66a9607ff9ae715", "7800b22da6b881af", "7bc31bd04996972d", "d46f1c393470c908", "34f4f72cdb62ee7e"},
	"attention-score/mid":     {"86ab3d10d897ece4", "c179736a05d98a1f", "044c470db576fc82", "1c7a679d7a8d2798", "5bbb85e5146a0dfc"},
	"batched-matmul/small":    {"5084ceaf91c473ba", "8aef7d5822cda3f6", "a5012fca9e029dca", "361e8c08a195e93d", "066b378c067a2b26"},
	"batched-matmul/mid":      {"7241c053977ddcea", "e2f437216ba912ca", "5d5a040aa49a90b5", "46b1ec6650d4e8fa", "65a24b13190326f3"},
	"cnn-layer/small":         {"35616b96eb1cac48", "4f699b57eb02ee3a", "c34ed2d22c9b3d16", "bafa63906d5daa8b", "e0d2569d24d318c9"},
	"cnn-layer/mid":           {"c6e569102586cc30", "32dcc60c5eb579a7", "b812c381c196ef87", "f4ddd0b70c6965bd", "2e247b5e4a2f2d54"},
	"conv1d/small":            {"8373dddc78278870", "5956affb0b405626", "871e5e3665efb0d0", "c931d7be7761660e", "0a9499aac5911cf7"},
	"conv1d/mid":              {"eff4d11e3461c012", "d2a5eb491da1588f", "4f890255faa7d9a8", "f58e659489968fca", "bb7b17f643a57ee2"},
	"depthwise-conv/small":    {"0bf18d7549d5aa1a", "5e8b416577cf231c", "73ed08c6691d700a", "c6aa27d7252985a7", "33e1de0cf9a0e998"},
	"depthwise-conv/mid":      {"f1f604735f635f23", "e3d41ccd016802c0", "638e98414a6a29a9", "dde3b5fcba33e744", "4d1283293e3d579c"},
	"gemm/small":              {"b717fc054e1981ed", "5a1bae2c80cd10d0", "67bfba2e3f0a7845", "b9837ded08dbde16", "37f539a73c999862"},
	"gemm/mid":                {"50e647b58baf06b2", "a59130c1b883ac2f", "28bfa5773ad7c7d9", "328b4578f348cfef", "400087ec5ffcbfe4"},
	"mttkrp/small":            {"973253e87ed6c592", "069290e36a15b725", "cf3a0519f4eb92a7", "663a520503f6edcf", "13d4f53b44b671a0"},
	"mttkrp/mid":              {"ccfa917192bbac60", "69b76d7153da97d7", "49c3e3f62e9d8de4", "118855ea7bde39fd", "c9605fa2e54734e5"},
	"table1/ResNet_Conv_3":    {"fa8344cb2681a83a", "0603a161a137f891", "191baac1cc6354a5", "a7db99c2da181e42", "9b42b140428947a3"},
	"table1/ResNet_Conv_4":    {"027c4777d4a905d4", "cae43b1905e045f0", "57cc9f4ae73aa835", "964b46d2f4ad753f", "f8e60f9615a2d781"},
	"table1/Inception_Conv_2": {"ee091e8c01abb3f6", "2a89df21b3689d14", "b7b0cc9678e0c25d", "27c2893486a99f28", "c613197a410e2c87"},
	"table1/VGG_Conv_2":       {"58d7ef68703abd7a", "f5eecd24dc7306d9", "820613011c42dd18", "3fc8a92e4409cb48", "aece80decce402a5"},
	"table1/AlexNet_Conv_2":   {"dd1e0390c9789ff8", "b09ca08bf82680c2", "cd03089db6f9d0ac", "010f0938bc42e454", "fccbd55ae94aacd8"},
	"table1/AlexNet_Conv_4":   {"2fac2bba9eab0360", "6c7d0092abe28cf1", "5d1851a2772358db", "5244aa1d91551471", "bd9e4044454c6038"},
	"table1/MTTKRP_0":         {"49a960e571cb19fc", "5338284e8106c970", "0419290056cee8e1", "fbcc3f91211d6d6d", "67baeddd49c19e1f"},
	"table1/MTTKRP_1":         {"2a3f5c293c6e5660", "cea63d664c925bc4", "ea5cc811b498c30d", "747ff642f418f86f", "6993600e577e4f95"},
}

// goldenSpaces returns every registered workload at its smallest and its
// middle sample shape, plus the eight Table-1 problems, each on the default
// accelerator for its operand count.
func goldenSpaces(t testing.TB) (names []string, spaces []*Space) {
	t.Helper()
	add := func(name string, p loopnest.Problem) {
		s, err := New(arch.Default(len(p.Algo.Tensors)-1), p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names = append(names, name)
		spaces = append(spaces, s)
	}
	for _, w := range loopnest.AlgorithmNames() {
		algo, err := loopnest.AlgorithmByName(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, pick := range []struct {
			label string
			index func(n int) int
		}{
			{"small", func(int) int { return 0 }},
			{"mid", func(n int) int { return n / 2 }},
		} {
			shape := make([]int, algo.NumDims())
			for d := range shape {
				vals := algo.SampleSpace[d]
				shape[d] = vals[pick.index(len(vals))]
			}
			p, err := algo.NewProblem(w+"-"+pick.label, shape)
			if err != nil {
				t.Fatal(err)
			}
			add(w+"/"+pick.label, p)
		}
	}
	table1, err := loopnest.Table1Problems()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range table1 {
		add("table1/"+p.Name, p)
	}
	return names, spaces
}

// writeMapping feeds a mapping's rendering plus the exact bits of its
// allocations (String rounds them to two places) into h.
func writeMapping(h io.Writer, m *Mapping) {
	fmt.Fprintln(h, m.String())
	for _, level := range m.Alloc {
		for _, a := range level {
			fmt.Fprintf(h, "%016x ", math.Float64bits(a))
		}
	}
	fmt.Fprintln(h)
}

func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// goldenStreams runs the five op streams on one space from a seed derived
// from its name and returns their digests.
func goldenStreams(name string, s *Space) [5]string {
	const n = 64
	f := fnv.New64a()
	io.WriteString(f, name)
	seed := int64(f.Sum64() >> 1)
	var out [5]string

	// random: n independent draws.
	h, rng := sha256.New(), rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		m := s.Random(rng)
		writeMapping(h, &m)
	}
	out[0] = digest(h)

	// perturb: an n-step random walk.
	h, rng = sha256.New(), rand.New(rand.NewSource(seed+1))
	m := s.Random(rng)
	for i := 0; i < n; i++ {
		m = s.Perturb(rng, &m)
		writeMapping(h, &m)
	}
	out[1] = digest(h)

	// crossover: a rolling pair of parents.
	h, rng = sha256.New(), rand.New(rand.NewSource(seed+2))
	a, b := s.Random(rng), s.Random(rng)
	for i := 0; i < n; i++ {
		var child Mapping
		s.CrossoverInto(rng, &a, &b, &child)
		writeMapping(h, &child)
		a, b = b, child
	}
	out[2] = digest(h)

	// mutate: an n-step chain at rate 0.3.
	h, rng = sha256.New(), rand.New(rand.NewSource(seed+3))
	m = s.Random(rng)
	for i := 0; i < n; i++ {
		var next Mapping
		s.MutateInto(rng, &m, 0.3, &next)
		m = next
		writeMapping(h, &m)
	}
	out[3] = digest(h)

	// decode: noisy encodings of random mappings, some with non-finite or
	// far out-of-range coordinates, some asking for oversized tiles so the
	// shrink-to-fit path runs.
	h, rng = sha256.New(), rand.New(rand.NewSource(seed+4))
	pid := s.NumDims()
	tileEnd := pid + (int(arch.NumLevels)+1)*s.NumDims()
	for i := 0; i < n; i++ {
		m := s.Random(rng)
		vec := s.Encode(&m)
		for j := pid; j < len(vec); j++ {
			vec[j] += 0.75 * rng.NormFloat64()
		}
		at := pid + rng.Intn(len(vec)-pid)
		switch i % 8 {
		case 1:
			vec[at] = math.NaN()
		case 2:
			vec[at] = math.Inf(1)
		case 3:
			vec[at] = math.Inf(-1)
		case 4:
			vec[at] = 100
		case 5:
			vec[at] = -100
		case 6:
			for j := pid; j < tileEnd; j++ {
				vec[j] += 6
			}
		}
		got, err := s.Decode(vec)
		if err != nil {
			panic(err)
		}
		writeMapping(h, &got)
	}
	out[4] = digest(h)
	return out
}

func TestGoldenOpStreams(t *testing.T) {
	names, spaces := goldenSpaces(t)
	seen := map[string]bool{}
	for i, name := range names {
		seen[name] = true
		got := goldenStreams(name, spaces[i])
		want, ok := goldenDigests[name]
		if !ok {
			t.Errorf("space %s has no pinned digests; add\n\t%q: {%q, %q, %q, %q, %q},",
				name, name, got[0], got[1], got[2], got[3], got[4])
			continue
		}
		for op := range got {
			if got[op] != want[op] {
				t.Errorf("%s %s digest %s, pinned %s", name, goldenOps[op], got[op], want[op])
			}
		}
	}
	for name := range goldenDigests {
		if !seen[name] {
			t.Errorf("pinned space %s is no longer generated", name)
		}
	}
}
