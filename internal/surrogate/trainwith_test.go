package surrogate

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
)

// tinyTrainSetup builds a seconds-scale dataset + config pair.
func tinyTrainSetup(t *testing.T, epochs int) (*RawDataset, Config) {
	t.Helper()
	cfg := TinyConfig()
	cfg.HiddenSizes = []int{16}
	cfg.Samples = 300
	cfg.Problems = 3
	cfg.Train.Epochs = epochs
	ds, err := Generate(loopnest.MustAlgorithm("conv1d"), arch.Default(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, cfg
}

// TestTrainWithCancelAndResume pins the checkpoint contract: a run
// cancelled mid-training resumes from its last completed epoch and ends
// with the full spliced loss history.
func TestTrainWithCancelAndResume(t *testing.T) {
	ds, cfg := tinyTrainSetup(t, 8)

	ctx, cancel := context.WithCancel(context.Background())
	var last *TrainState
	epochsSeen := 0
	_, hist, err := TrainWith(ds, cfg, TrainOptions{
		Ctx: ctx,
		OnEpoch: func(ep TrainEpoch) {
			epochsSeen++
			last = ep.State
			if ep.Epoch == 2 { // cancel after three completed epochs
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if epochsSeen != 3 || last == nil || last.Epoch != 3 {
		t.Fatalf("saw %d epochs, checkpoint %+v", epochsSeen, last)
	}
	if len(hist.TrainLoss) != 3 {
		t.Fatalf("partial history has %d epochs", len(hist.TrainLoss))
	}
	if len(last.Hist.TrainLoss) != 3 {
		t.Fatalf("checkpoint history has %d epochs", len(last.Hist.TrainLoss))
	}

	sur, full, err := TrainWith(ds, cfg, TrainOptions{Resume: last})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.TrainLoss) != 8 {
		t.Fatalf("resumed history has %d epochs, want 8", len(full.TrainLoss))
	}
	for i := 0; i < 3; i++ {
		if full.TrainLoss[i] != hist.TrainLoss[i] {
			t.Fatalf("epoch %d loss rewritten: %v vs %v", i, full.TrainLoss[i], hist.TrainLoss[i])
		}
	}
	if sur.AlgoName != "conv1d" || sur.InNorm != last.InNorm {
		t.Fatal("resumed surrogate lost its identity or whitening")
	}
	if _, err := predictOne(sur, ds.X[0], 1, 1); err != nil {
		t.Fatal(err)
	}
}

// TestTrainWithWarmStart checks warm-start semantics: the parent's
// whitening transforms are inherited (so the cloned weights keep meaning),
// the parent itself is not mutated, and incompatible parents are refused.
func TestTrainWithWarmStart(t *testing.T) {
	ds, cfg := tinyTrainSetup(t, 4)
	parent, _, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	parentW := parent.Net.Layers[0].W.Data[0]

	warmCfg := cfg
	warmCfg.Seed = 42
	child, hist, err := TrainWith(ds, warmCfg, TrainOptions{Warm: parent})
	if err != nil {
		t.Fatal(err)
	}
	if child.InNorm != parent.InNorm || child.OutNorm != parent.OutNorm {
		t.Fatal("warm start refit the whitening instead of inheriting it")
	}
	if parent.Net.Layers[0].W.Data[0] != parentW {
		t.Fatal("warm start mutated the parent's weights")
	}
	if child.Net == parent.Net {
		t.Fatal("child shares the parent's network")
	}
	if len(hist.TrainLoss) != 4 {
		t.Fatalf("warm history: %d epochs", len(hist.TrainLoss))
	}

	// Refusals: wrong workload, wrong representation, wrong topology.
	other, otherCfg := func() (*RawDataset, Config) {
		c := TinyConfig()
		c.HiddenSizes = []int{16}
		c.Samples = 300
		c.Problems = 3
		c.Train.Epochs = 1
		d, err := Generate(loopnest.MustAlgorithm("gemm"), arch.Default(2), c)
		if err != nil {
			t.Fatal(err)
		}
		return d, c
	}()
	if _, _, err := TrainWith(other, otherCfg, TrainOptions{Warm: parent}); err == nil {
		t.Fatal("warm start accepted a parent of another workload")
	}
	badMode := cfg
	badMode.LogOutputs = !cfg.LogOutputs
	if _, _, err := TrainWith(ds, badMode, TrainOptions{Warm: parent}); err == nil {
		t.Fatal("warm start accepted a different output representation")
	}
	badTopo := cfg
	badTopo.HiddenSizes = []int{24}
	if _, _, err := TrainWith(ds, badTopo, TrainOptions{Warm: parent}); err == nil {
		t.Fatal("warm start accepted a mismatched topology")
	}
	if _, _, err := TrainWith(ds, cfg, TrainOptions{Warm: parent, Resume: &TrainState{}}); err == nil {
		t.Fatal("warm + resume accepted together")
	}
}

// TestGenerateWithCancellationAndProgress checks the generation hooks.
func TestGenerateWithCancellationAndProgress(t *testing.T) {
	cfg := TinyConfig()
	cfg.Samples = 2000
	cfg.Problems = 3
	algo := loopnest.MustAlgorithm("conv1d")

	var reports int
	ctx, cancel := context.WithCancel(context.Background())
	_, err := GenerateWith(algo, arch.Default(2), cfg, GenerateOptions{
		Ctx: ctx,
		OnProgress: func(done, total int) {
			reports++
			if total != 2000 {
				t.Errorf("total %d", total)
			}
			cancel() // stop at the first report
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if reports != 1 {
		t.Fatalf("%d progress reports after cancel", reports)
	}

	// Uncancelled: progress strictly increases to completion.
	lastDone := -1
	ds, err := GenerateWith(algo, arch.Default(2), cfg, GenerateOptions{
		OnProgress: func(done, total int) {
			if done <= lastDone {
				t.Errorf("progress went backwards: %d after %d", done, lastDone)
			}
			lastDone = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2000 {
		t.Fatalf("%d samples", ds.Len())
	}
}

// TestGenerateRejectsMoreProblemsThanTheSampleSpace: conv1d's sample
// space holds 7x8 = 56 distinct problems. Asking for 57 is an error
// naming both counts, returned at once; 56 is served. Generation runs
// under a deadline so a draw loop that cannot finish fails the test
// instead of hanging it.
func TestGenerateRejectsMoreProblemsThanTheSampleSpace(t *testing.T) {
	algo := loopnest.MustAlgorithm("conv1d")
	if n := algo.NumSampleProblems(); n != 56 {
		t.Fatalf("conv1d has %d distinct sample problems, want 56", n)
	}
	generate := func(problems int) error {
		cfg := TinyConfig()
		cfg.Samples, cfg.Problems = 60, problems
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		done := make(chan error, 1)
		go func() {
			_, err := GenerateWith(algo, arch.Default(2), cfg, GenerateOptions{Ctx: ctx})
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-ctx.Done():
			t.Fatalf("generation of %d problems still running after its deadline", problems)
			return nil
		}
	}
	err := generate(57)
	if err == nil || !strings.Contains(err.Error(), "57 problems") || !strings.Contains(err.Error(), "only 56") {
		t.Fatalf("57 problems: err = %v, want a rejection naming 57 and 56", err)
	}
	if err := generate(56); err != nil {
		t.Fatalf("56 problems: %v", err)
	}
}

// TestEpochStatsTestLossNaNWithoutTestSet documents the OnEpoch contract
// at the surrogate layer: the test split always exists here, so TestLoss
// is finite.
func TestEpochStatsTestLoss(t *testing.T) {
	ds, cfg := tinyTrainSetup(t, 2)
	_, _, err := TrainWith(ds, cfg, TrainOptions{
		OnEpoch: func(ep TrainEpoch) {
			if math.IsNaN(ep.TestLoss) {
				t.Error("TestLoss NaN despite a test split")
			}
			if ep.Epochs != 2 {
				t.Errorf("Epochs = %d", ep.Epochs)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}
