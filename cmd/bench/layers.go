package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/atlas"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/modelstore"
	"mindmappings/internal/obs"
	"mindmappings/internal/oracle"
	"mindmappings/internal/resilience"
	"mindmappings/internal/search"
	"mindmappings/internal/service"
	"mindmappings/internal/surrogate"
)

// replayFraction is the share of a workload's searches the traced run
// re-runs through search.Searcher.Search with every seam wrapped.
const replayFraction = 0.10

// span is one timed interval, kept in memory and written out at exit.
// Times are microseconds from the traced pass's start.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Request string  `json:"request"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) add(name, request string, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name,
		StartUS: float64(start.Sub(t.origin).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(t.origin).Nanoseconds()) / 1e3})
	return id
}

// timed runs f under a span and returns its duration in microseconds.
func (t *tracer) timed(name, request string, parent int, f func()) float64 {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, request, parent, start, end)
	return float64(end.Sub(start).Nanoseconds()) / 1e3
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// requestSpans records each job's latency split into the layers its own
// timestamps and trace delimit: ingress (send → created: HTTP, decode,
// validation, atlas lookup), queue (created → started), and run (started →
// finished) with the job trace's resolve-model and search children. It
// returns the share of total latency those layers leave unexplained.
func (t *tracer) requestSpans(outs []outcome) float64 {
	var total, unattributed float64
	for i := range outs {
		o := &outs[i]
		if o.failure() != nil {
			continue
		}
		j := &o.job
		root := t.add("request", j.ID, 0, o.sent, j.Finished)
		t.add("ingress", j.ID, root, o.sent, j.Created)
		run := j.Finished.Sub(j.Started)
		if !j.Started.Equal(j.Created) || run > 0 {
			t.add("queue", j.ID, root, j.Created, j.Started)
			runID := t.add("run", j.ID, root, j.Started, j.Finished)
			for _, ph := range o.phases {
				start := j.Created.Add(time.Duration(ph.startMS * 1e6))
				t.add(ph.name, j.ID, runID, start, start.Add(time.Duration(ph.lengthMS*1e6)))
				run -= time.Duration(ph.lengthMS * 1e6)
			}
		}
		total += o.latency().Seconds()
		unattributed += run.Seconds()
	}
	if total == 0 {
		return 0
	}
	return unattributed / total
}

// metricsText is a parsed Prometheus exposition: full series text
// (name{labels}) → value.
type metricsText map[string]float64

func (in *instance) scrape(ctx context.Context) (metricsText, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, in.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := in.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics answered %d", resp.StatusCode)
	}
	m := metricsText{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue // +Inf/NaN gauges carry nothing the layers use
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// family reports whether series belongs to metric name.
func family(series, name string) bool {
	return series == name || strings.HasPrefix(series, name+"{")
}

// delta sums after−before over every series of name whose labels contain
// all of match (e.g. `reason="full"`).
func delta(before, after metricsText, name string, match ...string) float64 {
	var d float64
	for s, v := range after {
		if !family(s, name) {
			continue
		}
		ok := true
		for _, m := range match {
			ok = ok && strings.Contains(s, m)
		}
		if ok {
			d += v - before[s]
		}
	}
	return d
}

// histQuantile estimates quantile q of the observations histogram name
// received between the two scrapes, interpolating linearly inside the
// bucket, summed over every label set.
func histQuantile(before, after metricsText, name string, q float64) float64 {
	cum := map[float64]float64{}
	for s, v := range after {
		if !family(s, name+"_bucket") {
			continue
		}
		i := strings.Index(s, `le="`)
		if i < 0 {
			continue
		}
		raw := s[i+4:]
		le, err := strconv.ParseFloat(raw[:strings.IndexByte(raw, '"')], 64)
		if err != nil {
			continue
		}
		cum[le] += v - before[s]
	}
	les := make([]float64, 0, len(cum))
	for le := range cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || cum[les[len(les)-1]] == 0 {
		return 0
	}
	target := q * cum[les[len(les)-1]]
	prevLE, prevCum := 0.0, 0.0
	for _, le := range les {
		if cum[le] >= target {
			if math.IsInf(le, 1) || cum[le] == prevCum {
				return prevLE
			}
			return prevLE + (target-prevCum)/(cum[le]-prevCum)*(le-prevLE)
		}
		prevLE, prevCum = le, cum[le]
	}
	return prevLE
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// timedEvaluator times the reference cost model; cache hits never reach it.
type timedEvaluator struct {
	costmodel.Evaluator
	ns, n int64
}

func (e *timedEvaluator) EvaluateInto(ctx context.Context, m *mapspace.Mapping, c *costmodel.Cost) error {
	start := time.Now()
	err := e.Evaluator.EvaluateInto(ctx, m, c)
	e.ns += time.Since(start).Nanoseconds()
	e.n++
	return err
}

func (e *timedEvaluator) EvaluateBatchInto(ctx context.Context, ms []mapspace.Mapping, costs []costmodel.Cost, errs []error) {
	start := time.Now()
	e.Evaluator.EvaluateBatchInto(ctx, ms, costs, errs)
	e.ns += time.Since(start).Nanoseconds()
	e.n += int64(len(ms))
}

// timedCache times eval-cache lookups and stores.
type timedCache struct {
	inner *service.EvalCache
	ns    int64
}

func (c *timedCache) Get(key string) (costmodel.Cost, bool) {
	start := time.Now()
	v, ok := c.inner.Get(key)
	c.ns += time.Since(start).Nanoseconds()
	return v, ok
}

func (c *timedCache) GetBytes(key []byte) (costmodel.Cost, bool) {
	start := time.Now()
	v, ok := c.inner.GetBytes(key)
	c.ns += time.Since(start).Nanoseconds()
	return v, ok
}

func (c *timedCache) Put(key string, v costmodel.Cost) {
	start := time.Now()
	c.inner.Put(key, v)
	c.ns += time.Since(start).Nanoseconds()
}

// timedQuerier times the surrogate's batched forward and backward passes.
type timedQuerier struct {
	inner                 search.SurrogateQuerier
	predictNS, gradNS     int64
	predictRows, gradRows int64
}

func (q *timedQuerier) PredictBatch(vecs [][]float64, eExp, dExp float64, dst []float64) ([]float64, error) {
	start := time.Now()
	out, err := q.inner.PredictBatch(vecs, eExp, dExp, dst)
	q.predictNS += time.Since(start).Nanoseconds()
	q.predictRows += int64(len(vecs))
	return out, err
}

func (q *timedQuerier) GradientBatch(vecs [][]float64, eExp, dExp float64, vals []float64, grads [][]float64) ([]float64, [][]float64, error) {
	start := time.Now()
	v, g, err := q.inner.GradientBatch(vecs, eExp, dExp, vals, grads)
	q.gradNS += time.Since(start).Nanoseconds()
	q.gradRows += int64(len(vecs))
	return v, g, err
}

// journalRecord mirrors the service's journal record, so journal writes
// are timed with records of the real size.
type journalRecord struct {
	ID         string                `json:"id"`
	Tenant     string                `json:"tenant,omitempty"`
	Status     service.JobStatus     `json:"status"`
	Request    service.SearchRequest `json:"request"`
	Created    time.Time             `json:"created"`
	Checkpoint *search.Checkpoint    `json:"checkpoint,omitempty"`
}

// replayStats accumulates the replay's seam timings, and the replays that
// did not reproduce the service's result.
type replayStats struct {
	mismatches                              []error
	wallNS                                  int64
	eval                                    timedEvaluator // ns and n summed over the replays
	cache                                   timedCache
	surrogate                               timedQuerier
	validate, newSpace, decode, member      []float64
	render, key, lookup, nearest, publish   []float64
	journalPut, journalDelete, registryGets []float64
}

// replayItems picks the seeded sample of outcomes that ran a search: about
// replayFraction of each searcher's jobs, at least one of each.
func replayItems(rng *rand.Rand, outs []outcome) []int {
	by := map[string][]int{}
	for i := range outs {
		if outs[i].failure() == nil && outs[i].job.Result.Source != "atlas" {
			s := outs[i].req.Body.Searcher
			by[s] = append(by[s], i)
		}
	}
	var picked []int
	for _, s := range []string{"mm", "ga", "sa"} {
		idx := by[s]
		k := max(min(len(idx), 1), int(float64(len(idx))*replayFraction+0.5))
		for _, j := range rng.Perm(len(idx))[:k] {
			picked = append(picked, idx[j])
		}
	}
	sort.Ints(picked)
	return picked
}

// problemOf resolves a request's workload and problem the way the service
// does: a Table-1 problem by name, or a custom shape.
func problemOf(b *service.SearchRequest) (*loopnest.Algorithm, loopnest.Problem, error) {
	algo, err := loopnest.AlgorithmByName(b.Algo)
	if err != nil {
		return nil, loopnest.Problem{}, err
	}
	if b.Problem == "" {
		p, err := algo.NewProblem("custom", b.Shape)
		return algo, p, err
	}
	probs, err := loopnest.Table1Problems()
	if err != nil {
		return nil, loopnest.Problem{}, err
	}
	for _, p := range probs {
		if p.Name == b.Problem && p.Algo.Name == algo.Name {
			return algo, p, nil
		}
	}
	return nil, loopnest.Problem{}, fmt.Errorf("problem %q not found for %s", b.Problem, algo.Name)
}

// replay re-runs the sampled searches directly through the library with
// every seam timed, into a scratch atlas, journal and eval cache under dir.
// A fixed-eval search the live service ran cold must reproduce its best
// EDP bit for bit.
func (in *instance) replay(ctx context.Context, t *tracer, outs []outcome, items []int, dir string) (*replayStats, error) {
	scratch, err := atlas.Open(filepath.Join(dir, "atlas"))
	if err != nil {
		return nil, err
	}
	journal, err := resilience.OpenJournal(filepath.Join(dir, "jobs"))
	if err != nil {
		return nil, err
	}
	st := &replayStats{cache: timedCache{inner: service.NewEvalCache(0)}}
	q := &st.surrogate
	for _, i := range items {
		o := &outs[i]
		b := &o.req.Body
		id := fmt.Sprintf("replay-%d", i)
		start := time.Now()
		root := t.add("replay", id, 0, start, start) // end set below
		var verr error
		st.validate = append(st.validate, t.timed("validate", id, root, func() { verr = b.Validate() }))
		if verr != nil {
			return nil, verr
		}
		algo, prob, err := problemOf(b)
		if err != nil {
			return nil, err
		}
		a := arch.Default(len(algo.Tensors) - 1)
		var space *mapspace.Space
		st.newSpace = append(st.newSpace, t.timed("mapspace.new", id, root, func() { space, err = mapspace.New(a, prob) }))
		if err != nil {
			return nil, err
		}
		model, err := costmodel.New(b.CostModel, a, prob)
		if err != nil {
			return nil, err
		}
		bound, err := oracle.Compute(a, prob)
		if err != nil {
			return nil, err
		}
		obj, err := search.ParseObjective(b.Objective)
		if err != nil {
			return nil, err
		}
		budget := search.Budget{MaxEvals: b.Evals}
		if b.Time != "" {
			if budget.MaxTime, err = time.ParseDuration(b.Time); err != nil {
				return nil, err
			}
		}
		var searcher search.Searcher
		switch b.Searcher {
		case "mm":
			var sur *surrogate.Surrogate
			st.registryGets = append(st.registryGets, t.timed("registry.get", id, root, func() {
				sur, err = in.registry.Get(in.models[algo.Name])
			}))
			if err != nil {
				return nil, err
			}
			q.inner = sur
			searcher = search.MindMappings{Surrogate: sur, Queries: q}
		case "ga":
			searcher = search.GeneticAlgorithm{}
		case "sa":
			searcher = search.SimulatedAnnealing{}
		default:
			return nil, fmt.Errorf("replay: searcher %q", b.Searcher)
		}
		ev := &timedEvaluator{Evaluator: model}
		var ck *search.Checkpoint
		sctx := &search.Context{Space: space, Model: ev, Bound: bound, Seed: b.Seed, Objective: obj, Ctx: ctx,
			Cache: &st.cache, Evals: &costmodel.Counter{},
			Checkpoint: func(c *search.Checkpoint) { ck = c }}
		var res search.Result
		searchStart := time.Now()
		res, err = searcher.Search(sctx, budget)
		searchEnd := time.Now()
		t.add("search", id, root, searchStart, searchEnd)
		if err != nil {
			return nil, err
		}
		st.wallNS += searchEnd.Sub(searchStart).Nanoseconds()
		st.eval.ns += ev.ns
		st.eval.n += ev.n
		if b.Time == "" && o.job.Result.Source == "" && res.BestEDP != o.job.Result.BestEDP {
			st.mismatches = append(st.mismatches, fmt.Errorf("replay of job %s found best_edp %v, the service found %v",
				o.job.ID, res.BestEDP, o.job.Result.BestEDP))
		}

		best := res.Best
		vec := space.Encode(&best)
		st.decode = append(st.decode, t.timed("mapspace.decode", id, root, func() { _, err = space.Decode(vec) }))
		if err != nil {
			return nil, err
		}
		st.member = append(st.member, t.timed("mapspace.ismember", id, root, func() { err = space.IsMember(&best) }))
		if err != nil {
			return nil, err
		}
		st.render = append(st.render, t.timed("mapspace.render", id, root, func() { space.RenderLoopNest(&best) }))

		e := atlas.Entry{Algo: algo.Name, AlgoFP: algo.Fingerprint(), ArchFP: modelstore.ArchFingerprint(a),
			CostModel: model.Name(), Objective: obj.String(), Shape: prob.Shape,
			BestEDP: res.BestEDP, Evals: res.Evals, Method: res.Method, Source: "bench"}
		st.key = append(st.key, t.timed("atlas.key", id, root, func() {
			e.Key, e.Family = atlas.Key(e.AlgoFP, e.ArchFP, e.CostModel, e.Objective, e.Shape)
		}))
		st.publish = append(st.publish, t.timed("atlas.publish", id, root, func() { _, _, err = scratch.Publish(e, &best) }))
		if err != nil {
			return nil, err
		}
		st.lookup = append(st.lookup, t.timed("atlas.lookup", id, root, func() { _, _, _, err = scratch.Lookup(e.Key) }))
		if err != nil {
			return nil, err
		}
		st.nearest = append(st.nearest, t.timed("atlas.nearest", id, root, func() { _, _, _, _, err = scratch.Nearest(e.Family, e.Shape) }))
		if err != nil {
			return nil, err
		}

		rec := journalRecord{ID: id, Tenant: o.req.Tenant, Status: service.JobRunning, Request: *b, Created: o.job.Created, Checkpoint: ck}
		st.journalPut = append(st.journalPut, t.timed("journal.put", id, root, func() { err = journal.Put(id, rec) }))
		if err != nil {
			return nil, err
		}
		st.journalDelete = append(st.journalDelete, t.timed("journal.delete", id, root, func() { err = journal.Delete(id) }))
		if err != nil {
			return nil, err
		}
		t.spans[root-1].EndUS = float64(time.Since(t.origin).Nanoseconds()) / 1e3
	}
	return st, nil
}

// perLayer derives the per-layer metrics of a traced pass.
func perLayer(in *instance, before, after metricsText, outs []outcome, st *replayStats, unattributed float64, trains []obs.SpanSnapshot) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

	in.http.mu.Lock()
	set("http.requests", float64(in.http.requests), "count")
	set("http.non2xx", float64(in.http.non2xx), "count")
	set("http.search_us_p50", orZero(percentile(in.http.searchUS, 0.5)), "us")
	set("http.search_us_p90", orZero(percentile(in.http.searchUS, 0.9)), "us")
	in.http.mu.Unlock()

	var wait, run []float64
	for i := range outs {
		o := &outs[i]
		if o.failure() != nil || o.job.Result.Source == "atlas" {
			continue
		}
		wait = append(wait, ms(o.job.Started.Sub(o.job.Created)))
		run = append(run, ms(o.job.Finished.Sub(o.job.Started)))
	}
	set("service.queue_wait_ms_p50", orZero(percentile(wait, 0.5)), "ms")
	set("service.queue_wait_ms_p90", orZero(percentile(wait, 0.9)), "ms")
	set("service.run_ms_p50", orZero(percentile(run, 0.5)), "ms")
	set("service.admission_rejects", delta(before, after, "admission_rejected_total")+delta(before, after, "admission_shed_total"), "count")
	set("service.validate_us", orZero(median(st.validate)), "us")

	hits := delta(before, after, "atlas_hits_total")
	neighbors := delta(before, after, "atlas_neighbor_total")
	cold := delta(before, after, "atlas_cold_total")
	set("atlas.hits", hits, "count")
	set("atlas.neighbors", neighbors, "count")
	set("atlas.cold", cold, "count")
	set("atlas.writebacks", delta(before, after, "atlas_writebacks_total"), "count")
	set("atlas.hit_ratio", ratio(hits, hits+neighbors+cold), "ratio")
	set("atlas.publish_attempts", float64(in.atlasHooks.Load()), "count")
	set("atlas.key_us", orZero(median(st.key)), "us")
	set("atlas.lookup_us_p50", orZero(median(st.lookup)), "us")
	set("atlas.nearest_us_p50", orZero(median(st.nearest)), "us")
	set("atlas.publish_us_p50", orZero(median(st.publish)), "us")

	set("mapspace.new_us", orZero(median(st.newSpace)), "us")
	set("mapspace.decode_us", orZero(median(st.decode)), "us")
	set("mapspace.ismember_us", orZero(median(st.member)), "us")
	set("mapspace.render_us", orZero(median(st.render)), "us")

	sg := &st.surrogate
	wall := float64(st.wallNS)
	set("surrogate.rows", float64(sg.predictRows+sg.gradRows), "count")
	set("surrogate.grad_us_per_row", ratio(float64(sg.gradNS)/1e3, float64(sg.gradRows)), "us")
	set("surrogate.predict_us_per_row", ratio(float64(sg.predictNS)/1e3, float64(sg.predictRows)), "us")
	surShare := ratio(float64(sg.predictNS+sg.gradNS), wall)
	set("surrogate.share", surShare, "ratio")

	batches := delta(before, after, "infer_batch_rows_count")
	set("infer.batch_rows_mean", ratio(delta(before, after, "infer_batch_rows_sum"), batches), "rows")
	set("infer.wait_us_p50", histQuantile(before, after, "infer_batch_wait_seconds", 0.5)*1e6, "us")
	set("infer.flushes_full", delta(before, after, "infer_batch_flushes_total", `reason="full"`), "count")
	set("infer.flushes_window", delta(before, after, "infer_batch_flushes_total", `reason="window"`), "count")
	set("infer.flushes_antistall", delta(before, after, "infer_batch_flushes_total", `reason="antistall"`), "count")

	cmShare := ratio(float64(st.eval.ns+st.cache.ns), wall)
	set("costmodel.evals", delta(before, after, "costmodel_evals_total"), "count")
	set("costmodel.eval_ns", ratio(float64(st.eval.ns), float64(st.eval.n)), "ns")
	set("costmodel.share", cmShare, "ratio")
	cacheHits := delta(before, after, "eval_cache_hits_total")
	set("evalcache.hit_ratio", ratio(cacheHits, cacheHits+delta(before, after, "eval_cache_misses_total")), "ratio")
	set("search.self_share", 1-cmShare-surShare, "ratio")

	// The journal's failpoint fires before the temp write and before the
	// rename of every Put attempt.
	set("journal.writes", float64(in.journalHooks.Load())/2, "count")
	set("journal.write_us_p50", orZero(median(st.journalPut)), "us")
	set("journal.delete_us_p50", orZero(median(st.journalDelete)), "us")

	set("registry.get_us", orZero(median(st.registryGets)), "us")
	set("registry.disk_loads", after["model_registry_disk_loads_total"], "count")
	phases := map[string]float64{}
	for _, tr := range trains {
		for _, c := range tr.Children {
			phases[c.Name] += c.DurationMS / 1e3
		}
	}
	set("trainer.generate_s", phases["generate"], "s")
	set("trainer.train_s", phases["train"], "s")
	set("trainer.publish_s", phases["publish"], "s")

	set("unattributed_share", unattributed, "ratio")
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
