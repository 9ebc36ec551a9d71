package mapspace

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
)

func TestChainTableMatchesEnumeration(t *testing.T) {
	for _, n := range []int{1, 12, 97, 224, 4096} {
		table := chainsFor(n)
		want := EnumerateChains(n)
		if len(table.chains) != len(want) || len(table.logs) != len(want) {
			t.Fatalf("n=%d: table holds %d chains / %d logs, want %d",
				n, len(table.chains), len(table.logs), len(want))
		}
		for i, c := range want {
			if table.chains[i] != c {
				t.Fatalf("n=%d chain %d = %v, want %v (enumeration order)", n, i, table.chains[i], c)
			}
			logs := c.Logs()
			for b := range logs {
				if math.Float64bits(table.logs[i][b]) != math.Float64bits(logs[b]) {
					t.Fatalf("n=%d chain %v log %d = %v, want %v", n, c, b, table.logs[i][b], logs[b])
				}
			}
		}
	}
}

// Spaces whose dimensions have equal sizes read one shared table, and
// Chains hands it out capacity-capped so an append cannot write into it.
func TestSpacesShareChainTables(t *testing.T) {
	a, err := loopnest.NewCNNProblem("a", 4, 16, 8, 14, 14, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loopnest.NewMTTKRPProblem("b", 16, 14, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := New(arch.Default(2), a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := New(arch.Default(3), b)
	if err != nil {
		t.Fatal(err)
	}
	for da, size := range a.Shape {
		for db, other := range b.Shape {
			if size != other {
				continue
			}
			if sa.tables[da] != sb.tables[db] {
				t.Fatalf("size %d: spaces hold different tables", size)
			}
			ca, cb := sa.Chains(da), sb.Chains(db)
			if &ca[0] != &cb[0] {
				t.Fatalf("size %d: Chains returned different arrays", size)
			}
			if cap(ca) != len(ca) {
				t.Fatalf("size %d: Chains has spare capacity %d", size, cap(ca)-len(ca))
			}
		}
	}
	// The output rows and columns (both 12) share within one space too.
	if sa.tables[3] != sa.tables[4] {
		t.Fatal("equal dimensions of one space hold different tables")
	}
}

// The cache starts over rather than grow past maxCachedChains; tables
// handed out before the reset stay intact.
func TestChainCacheBounded(t *testing.T) {
	first := chainsFor(720720)
	want := len(first.chains)
	resets, prev := 0, 0
	for n := 2; resets == 0; n++ {
		chainsFor(n)
		chainCache.Lock()
		held, count := len(chainCache.tables), chainCache.chains
		chainCache.Unlock()
		if count > maxCachedChains {
			t.Fatalf("cache holds %d chains, bound %d", count, maxCachedChains)
		}
		if held < prev {
			resets++
		}
		prev = held
	}
	if len(first.chains) != want || first.chains[want-1].Product() != 720720 {
		t.Fatal("a table handed out before the reset changed")
	}
}

// Spaces built and used concurrently — sharing tables and the pooled
// workspace — produce exactly what a sequential run produces. Run under
// -race in CI.
func TestConcurrentSpacesProject(t *testing.T) {
	problems := []func() (loopnest.Problem, error){
		func() (loopnest.Problem, error) { return loopnest.NewCNNProblem("c", 4, 16, 8, 14, 14, 3, 3) },
		func() (loopnest.Problem, error) { return loopnest.NewCNNProblem("c", 8, 32, 16, 28, 28, 3, 3) },
		func() (loopnest.Problem, error) { return loopnest.NewMTTKRPProblem("m", 64, 128, 256, 128) },
	}
	run := func(i int) string {
		p, err := problems[i%len(problems)]()
		if err != nil {
			panic(err)
		}
		s, err := New(arch.Default(len(p.Algo.Tensors)-1), p)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		out := ""
		for k := 0; k < 20; k++ {
			m := s.Random(rng)
			vec := s.Encode(&m)
			for j := s.NumDims(); j < len(vec); j++ {
				vec[j] += rng.NormFloat64()
			}
			got, err := s.Decode(vec)
			if err != nil {
				panic(err)
			}
			next := s.Perturb(rng, &got)
			out += got.String() + next.String()
		}
		return out
	}
	const workers = 8
	want := make([]string, workers)
	for i := range want {
		want[i] = run(i)
	}
	// Start from an empty cache so the workers also race to build tables.
	chainCache.Lock()
	chainCache.tables, chainCache.chains = nil, 0
	chainCache.Unlock()
	got := make([]string, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(i)
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("worker %d: concurrent run differs from sequential", i)
		}
	}
}
