package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/nn"
	"mindmappings/internal/stats"
	"mindmappings/internal/surrogate"
)

// servingModelDir writes a serving-shape cnn-layer surrogate into a temp
// model dir: the paper's CNN topology (62-wide mapping vector, [64 128
// 128 64] hidden, meta-stats head) with random weights and identity
// normalizers — training does not change inference cost, and the tiny
// conv1d test fixture (~3µs/query) would drown the serving hot path this
// benchmark exists to measure in scheduler noise.
func servingModelDir(b *testing.B) (string, string) {
	b.Helper()
	algo := loopnest.MustAlgorithm("cnn-layer")
	a := arch.Default(len(algo.Tensors) - 1)
	probs, err := loopnest.Table1CNNProblems()
	if err != nil {
		b.Fatal(err)
	}
	var prob loopnest.Problem
	for _, p := range probs {
		if p.Name == "ResNet_Conv_4" {
			prob = p
		}
	}
	space, err := mapspace.New(a, prob)
	if err != nil {
		b.Fatal(err)
	}
	inDim := space.VectorLen()
	numTensors := len(algo.Tensors)
	outDim := int(arch.NumLevels)*numTensors + 3
	sizes := append([]int{inDim}, 64, 128, 128, 64, outDim)
	net, err := nn.NewMLP(sizes, stats.NewRNG(5))
	if err != nil {
		b.Fatal(err)
	}
	ident := func(d int) *stats.Normalizer {
		n := &stats.Normalizer{Mean: make([]float64, d), Std: make([]float64, d)}
		for i := range n.Std {
			n.Std[i] = 1
		}
		return n
	}
	sur := &surrogate.Surrogate{
		AlgoName:   algo.Name,
		Net:        net,
		InNorm:     ident(inDim),
		OutNorm:    ident(outDim),
		Mode:       surrogate.OutputMetaStats,
		LogOutputs: true,
		NumTensors: numTensors,
	}
	var buf bytes.Buffer
	if err := sur.Save(&buf); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "cnn.surrogate"), buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	return dir, "cnn.surrogate"
}

// BenchmarkServiceMMJobs measures aggregate serving throughput — total
// cost-model evaluations per second across concurrent mm jobs sharing one
// registry surrogate. Each job runs single-chain gradient search over the
// CNN layer, so its surrogate queries are one row each.
func BenchmarkServiceMMJobs(b *testing.B) {
	const evalsPerJob = 400
	for _, concurrent := range []int{4, 8} {
		b.Run(fmt.Sprintf("direct/jobs%d", concurrent), func(b *testing.B) {
			dir, model := servingModelDir(b)
			jm := NewJobManager(NewModelRegistry(dir, 4), nil, concurrent, 64)
			defer jm.Shutdown(context.Background())
			request := func(seed int64) SearchRequest {
				return SearchRequest{
					Algo:     "cnn-layer",
					Problem:  "ResNet_Conv_4",
					Searcher: "mm",
					Model:    model,
					Evals:    evalsPerJob,
					Seed:     seed,
				}
			}
			// Warm the registry and search path once, unmeasured.
			warm := request(999)
			warm.Evals = 10
			job, err := jm.Submit(warm)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := jm.Wait(context.Background(), job.ID); err != nil {
				b.Fatal(err)
			}

			b.ResetTimer()
			start := time.Now()
			var evals int
			for i := 0; i < b.N; i++ {
				ids := make([]string, concurrent)
				for j := 0; j < concurrent; j++ {
					job, err := jm.Submit(request(int64(i*concurrent + j)))
					if err != nil {
						b.Fatal(err)
					}
					ids[j] = job.ID
				}
				for _, id := range ids {
					done, err := jm.Wait(context.Background(), id)
					if err != nil {
						b.Fatal(err)
					}
					if done.Status != JobDone {
						b.Fatalf("job %s: %s (%s)", id, done.Status, done.Error)
					}
					evals += done.Result.Evals
				}
			}
			b.ReportMetric(float64(evals)/time.Since(start).Seconds(), "evals/s")
		})
	}
}
