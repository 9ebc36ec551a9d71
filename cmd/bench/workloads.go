package main

import (
	"fmt"
	"math/rand"
	"strings"

	"mindmappings/internal/loopnest"
	"mindmappings/internal/service"
)

// request is one generated POST /v1/search: the body and its X-Tenant.
type request struct {
	Tenant string
	Body   service.SearchRequest
}

// plan is a workload's generated input: requests the set-up phase runs to
// completion before anything is measured (the atlas pre-solve), the
// unmeasured warm-up slice, and the measured requests.
type plan struct {
	presolve []request
	warmup   []request
	measured []request
}

// workload is one traffic mix. Each uses a fixed request count derived from
// -seconds, not a fixed duration, so the server's state (eval cache, atlas,
// job table) evolves identically from run to run.
type workload struct {
	name string
	why  string
	// atlas attaches the mapping atlas with write-back; admission installs
	// the per-tenant concurrency cap. Everything else is serve's default.
	atlas     bool
	admission bool
	// probe re-submits the first measured requests at the end and requires
	// bit-identical results.
	probe bool
	// burst is how many jobs a client submits back to back before waiting
	// for all of them.
	burst int
	// size is the measured request count for a -seconds budget, calibrated
	// so a run measures about that long on a 2-core host.
	size func(seconds int) int
	// generate derives the plan for n measured requests from rng alone.
	generate func(rng *rand.Rand, n int) (plan, error)
}

// Budgets of the generated searches.
const (
	coldMMEvals      = 1000
	coldBlackEvals   = 3000
	isoTimeBudget    = "160ms"
	presolveEvals    = 500
	neighborEvals    = 150
	churnEvals       = 300
	atlasShapesCNN   = 32
	atlasShapesMTT   = 16
	neighborEvery    = 100 // one request in this many is an unseen neighbor shape
	churnMMPercent   = 5
	admissionPerUser = 8
)

var tenants = []string{"tenant-a", "tenant-b", "tenant-c"}

var workloads = []*workload{
	{
		name:      "cold-mix",
		why:       "cold mm/ga/sa searches on the Table-1 problems in bursts of 4 per client: the compute path and queueing",
		admission: true,
		probe:     true,
		burst:     4,
		size:      func(s int) int { return roundUp(24*s, 8) },
		generate:  coldMix,
	},
	{
		name:     "iso-time",
		why:      "mm/ga/sa at a fixed wall-clock budget per job: EDP reached in the same time, the paper's iso-time comparison",
		burst:    1,
		size:     func(s int) int { return 24 * max(1, (s+1)/2) },
		generate: isoTime,
	},
	{
		name:     "atlas-repeat",
		why:      "Zipf repeats of pre-solved shapes answered from the atlas, 1% unseen neighbors: the request path, little search",
		atlas:    true,
		burst:    1,
		size:     func(s int) int { return 2500 * s },
		generate: atlasRepeat,
	},
	{
		name:  "persist-churn",
		why:   "short searches on unique shapes with atlas write-back and the journal on: persistence and job lifecycle",
		atlas: true,
		burst: 1,
		// The noisiest workload on a shared host (file commits, a large
		// live heap to collect): it measures about twice -seconds.
		size:     func(s int) int { return 160 * s },
		generate: persistChurn,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(names, ", "))
}

func roundUp(n, m int) int { return (n + m - 1) / m * m }

// warmupCount is the unmeasured slice run before measuring: about 5%.
func warmupCount(n int) int { return max(1, n/20) }

// seed draws a nonzero search seed (0 selects the searcher's default).
func seed(rng *rand.Rand) int64 { return rng.Int63n(1<<31) + 1 }

func table1() ([]loopnest.Problem, error) {
	probs, err := loopnest.Table1Problems()
	if err != nil {
		return nil, fmt.Errorf("table 1 problems: %w", err)
	}
	return probs, nil
}

// coldMix: 50% mm, 25% ga, 25% sa, each spread evenly over the eight
// Table-1 problems and shuffled, from three tenants. Exact proportions keep
// the seed from changing the mix, only the order and the search seeds.
func coldMix(rng *rand.Rand, n int) (plan, error) {
	probs, err := table1()
	if err != nil {
		return plan{}, err
	}
	total := n + warmupCount(n)
	type pick struct {
		searcher string
		prob     loopnest.Problem
	}
	picks := make([]pick, total)
	for i := range picks {
		switch {
		case i < total/2:
			picks[i] = pick{"mm", probs[i%len(probs)]}
		case i < total*3/4:
			picks[i] = pick{"ga", probs[i%len(probs)]}
		default:
			picks[i] = pick{"sa", probs[i%len(probs)]}
		}
	}
	rng.Shuffle(total, func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	reqs := make([]request, total)
	for i, pk := range picks {
		s, p := pk.searcher, pk.prob
		body := service.SearchRequest{Algo: p.Algo.Name, Problem: p.Name, Searcher: s, Seed: seed(rng)}
		if s == "mm" {
			body.Model, body.Evals = "auto", coldMMEvals
		} else {
			body.Evals = coldBlackEvals
		}
		reqs[i] = request{Tenant: tenants[rng.Intn(len(tenants))], Body: body}
	}
	w := warmupCount(n)
	return plan{warmup: reqs[:w], measured: reqs[w:]}, nil
}

// isoTime: every searcher on every Table-1 problem under several seeds, each
// job limited by wall-clock time only.
func isoTime(rng *rand.Rand, n int) (plan, error) {
	probs, err := table1()
	if err != nil {
		return plan{}, err
	}
	job := func(s string, p loopnest.Problem) request {
		body := service.SearchRequest{Algo: p.Algo.Name, Problem: p.Name, Searcher: s, Time: isoTimeBudget, Seed: seed(rng)}
		if s == "mm" {
			body.Model = "auto"
		}
		return request{Body: body}
	}
	searchers := []string{"mm", "ga", "sa"}
	var measured []request
	for len(measured) < n {
		for _, p := range probs {
			for _, s := range searchers {
				measured = append(measured, job(s, p))
			}
		}
	}
	measured = measured[:n]
	rng.Shuffle(n, func(i, j int) { measured[i], measured[j] = measured[j], measured[i] })
	warmup := make([]request, warmupCount(n))
	for i := range warmup {
		warmup[i] = job(searchers[i%len(searchers)], probs[rng.Intn(len(probs))])
	}
	return plan{warmup: warmup, measured: measured}, nil
}

// shapeSet draws distinct problem shapes.
type shapeSet map[string]bool

func (s shapeSet) add(algo string, shape []int) bool {
	k := fmt.Sprint(algo, shape)
	if s[k] {
		return false
	}
	s[k] = true
	return true
}

// wideSizes replace the typical sizes of a workload whose typical values
// combine into fewer than minShapeSpace shapes (gemm has 216, mttkrp
// 1080): too few for a long run of unique shapes.
var wideSizes = []int{32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096}

const (
	minShapeSpace = 10000
	maxDraws      = 1000
)

// fresh draws a shape of algo not yet in the set.
func (s shapeSet) fresh(rng *rand.Rand, algo *loopnest.Algorithm) ([]int, error) {
	vals := algo.SampleValues()
	space := 1
	for _, v := range vals {
		space *= len(v)
	}
	if space < minShapeSpace {
		for d := range vals {
			vals[d] = wideSizes
		}
	}
	for range maxDraws {
		shape := make([]int, len(vals))
		for d, v := range vals {
			shape[d] = v[rng.Intn(len(v))]
		}
		if s.add(algo.Name, shape) {
			return shape, nil
		}
	}
	return nil, fmt.Errorf("no unseen %s shape in %d draws", algo.Name, maxDraws)
}

func algorithms(names ...string) ([]*loopnest.Algorithm, error) {
	out := make([]*loopnest.Algorithm, len(names))
	for i, name := range names {
		a, err := loopnest.AlgorithmByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// atlasSeed draws atlas-repeat's pre-solved variants. Like the set-up
// surrogates, the solved atlas is the environment the run seed's requests
// are measured in, so it does not change with the run seed.
const atlasSeed = 1

// atlasRepeat: set-up pre-solves 48 shapes (the Table-1 shapes plus seeded
// variants); the measured requests repeat them with Zipf popularity and
// varied searcher, seed and budget — fields the atlas key ignores, so each
// is an exact hit — except one in neighborEvery, an unseen shape that mm
// warm-starts from its nearest solved neighbor and writes back.
func atlasRepeat(rng *rand.Rand, n int) (plan, error) {
	probs, err := table1()
	if err != nil {
		return plan{}, err
	}
	algos, err := algorithms("cnn-layer", "mttkrp")
	if err != nil {
		return plan{}, err
	}
	seen := shapeSet{}
	var solved []request
	for _, p := range probs {
		seen.add(p.Algo.Name, p.Shape)
		solved = append(solved, request{Body: service.SearchRequest{Algo: p.Algo.Name, Shape: p.Shape}})
	}
	variants := rand.New(rand.NewSource(atlasSeed))
	for i, want := range []int{atlasShapesCNN, atlasShapesMTT} {
		for have := countAlgo(solved, algos[i].Name); have < want; have++ {
			shape, err := seen.fresh(variants, algos[i])
			if err != nil {
				return plan{}, err
			}
			solved = append(solved, request{Body: service.SearchRequest{Algo: algos[i].Name, Shape: shape}})
		}
	}
	// Pre-solved with ga, whose result does not depend on what the atlas
	// already holds, so the stored entries are the same in every run.
	for i := range solved {
		solved[i].Body.Searcher, solved[i].Body.Evals, solved[i].Body.Seed = "ga", presolveEvals, 1
	}
	total := n + warmupCount(n)
	// The unseen neighbor shapes come from atlasSeed too, and the run seed
	// only orders them: their searches take a sizeable share of the run's CPU,
	// so shapes drawn per seed would make the hits' latency depend on which
	// shapes a seed happened to draw.
	var neighbors []service.SearchRequest
	for i := neighborEvery / 2; i < total; i += neighborEvery {
		a := algos[variants.Intn(len(algos))]
		shape, err := seen.fresh(variants, a)
		if err != nil {
			return plan{}, err
		}
		neighbors = append(neighbors, service.SearchRequest{Algo: a.Name, Shape: shape,
			Searcher: "mm", Model: "auto", Evals: neighborEvals})
	}
	rng.Shuffle(len(neighbors), func(i, j int) { neighbors[i], neighbors[j] = neighbors[j], neighbors[i] })
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(solved)-1))
	searchers := []string{"mm", "ga", "sa"}
	budgets := []int{300, 500, 1000, 2000}
	reqs := make([]request, total)
	for i := range reqs {
		if i%neighborEvery == neighborEvery/2 {
			body := neighbors[i/neighborEvery]
			body.Seed = seed(rng)
			reqs[i] = request{Body: body}
			continue
		}
		body := solved[zipf.Uint64()].Body
		body.Searcher = searchers[rng.Intn(len(searchers))]
		body.Evals = budgets[rng.Intn(len(budgets))]
		body.Seed = seed(rng)
		if body.Searcher == "mm" {
			body.Model = "auto"
		}
		reqs[i] = request{Body: body}
	}
	w := warmupCount(n)
	return plan{presolve: solved, warmup: reqs[:w], measured: reqs[w:]}, nil
}

func countAlgo(reqs []request, algo string) int {
	n := 0
	for _, r := range reqs {
		if r.Body.Algo == algo {
			n++
		}
	}
	return n
}

// churnSeed draws persist-churn's shapes: the run seed picks the order and
// the search seeds, so two seeds search the same shapes differently rather
// than averaging over different shapes.
const churnSeed = 1

// persistChurn: short ga/sa searches on unique cnn-layer, mttkrp and gemm
// shapes, plus churnMMPercent% mm searches that warm-start from the atlas;
// every job writes its solution back.
func persistChurn(rng *rand.Rand, n int) (plan, error) {
	all, err := algorithms("cnn-layer", "mttkrp", "gemm")
	if err != nil {
		return plan{}, err
	}
	trained := all[:2] // the workloads set-up trains surrogates for
	seen, shapes := shapeSet{}, rand.New(rand.NewSource(churnSeed))
	total := n + warmupCount(n)
	reqs := make([]request, total)
	for i := range reqs {
		body := service.SearchRequest{Evals: churnEvals, Seed: seed(rng)}
		a := all[i%len(all)]
		body.Searcher = []string{"ga", "sa"}[i/len(all)%2]
		if i%100 < churnMMPercent {
			a = trained[i%len(trained)]
			body.Searcher, body.Model = "mm", "auto"
		}
		body.Algo = a.Name
		if body.Shape, err = seen.fresh(shapes, a); err != nil {
			return plan{}, err
		}
		reqs[i] = request{Body: body}
	}
	rng.Shuffle(total, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	w := warmupCount(n)
	return plan{warmup: reqs[:w], measured: reqs[w:]}, nil
}
