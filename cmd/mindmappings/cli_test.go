package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mindmappings/internal/modelstore"
	"mindmappings/internal/search"
)

// End-to-end CLI tests: train a tiny surrogate, then drive search, compare
// and surface through the real command functions.

func trainTinySurrogate(t *testing.T) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "conv1d.surrogate")
	err := cmdTrain([]string{
		"-algo", "conv1d",
		"-config", "tiny",
		"-samples", "800",
		"-epochs", "4",
		"-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("surrogate file missing: %v", err)
	}
	return out
}

func TestCmdTrainSearchCompare(t *testing.T) {
	sur := trainTinySurrogate(t)

	if err := cmdSearch([]string{
		"-algo", "conv1d",
		"-surrogate", sur,
		"-shape", "1024,5",
		"-evals", "60",
		"-progress",
	}); err != nil {
		t.Fatalf("search: %v", err)
	}

	if err := cmdCompare([]string{
		"-algo", "conv1d",
		"-surrogate", sur,
		"-shape", "1024,5",
		"-evals", "40",
		"-rlhidden", "16",
	}); err != nil {
		t.Fatalf("compare: %v", err)
	}
}

// TestCmdGEMMEndToEnd: the gemm workload (registry-only, no hand-coded
// constructor ever existed for it) flows train → search → compare through
// the real command functions.
func TestCmdGEMMEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "gemm.surrogate")
	if err := cmdTrain([]string{
		"-algo", "gemm", "-config", "tiny",
		"-samples", "800", "-epochs", "4",
		"-out", out,
	}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := cmdSearch([]string{
		"-algo", "gemm", "-surrogate", out,
		"-shape", "M=64,K=64,N=64", "-evals", "60",
	}); err != nil {
		t.Fatalf("search: %v", err)
	}
	if err := cmdCompare([]string{
		"-algo", "gemm", "-surrogate", out,
		"-shape", "64,64,64", "-evals", "40", "-rlhidden", "16",
	}); err != nil {
		t.Fatalf("compare: %v", err)
	}
}

// TestCmdInlineEinsumEndToEnd: a workload defined entirely on the command
// line flows train → search → compare; the surrogate's derived name makes
// the train/search pair line up without a registry entry.
func TestCmdInlineEinsumEndToEnd(t *testing.T) {
	const spec = "Out[a,b] += L[a,c] * R[c,b]"
	out := filepath.Join(t.TempDir(), "inline.surrogate")
	if err := cmdTrain([]string{
		"-einsum", spec, "-config", "tiny",
		"-samples", "800", "-epochs", "4",
		"-out", out,
	}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := cmdSearch([]string{
		"-einsum", spec, "-surrogate", out,
		"-shape", "a=32,b=32,c=32", "-evals", "60",
	}); err != nil {
		t.Fatalf("search: %v", err)
	}
	if err := cmdCompare([]string{
		"-einsum", spec, "-surrogate", out,
		"-shape", "32,32,32", "-evals", "40", "-rlhidden", "16",
	}); err != nil {
		t.Fatalf("compare: %v", err)
	}
	// A different expression must be refused for this surrogate.
	if err := cmdSearch([]string{
		"-einsum", "Out[a,b] += L[a,q] * R[q,b] * S[a,b]", "-surrogate", out,
		"-shape", "a=32,b=32,q=32", "-evals", "10",
	}); err == nil {
		t.Fatal("surrogate accepted for a different einsum")
	}
}

// TestProgressPrinter pins the -progress hook contract: improvements
// always print, non-improvements inside the throttle window are dropped,
// and the line carries eval index, best cost, and throughput.
func TestProgressPrinter(t *testing.T) {
	var buf bytes.Buffer
	hook := progressPrinter(&buf)
	hook(search.Progress{Eval: 10, Best: 4.5, Elapsed: 10 * time.Millisecond, Improved: true})
	hook(search.Progress{Eval: 20, Best: 4.5, Elapsed: 20 * time.Millisecond}) // throttled
	hook(search.Progress{Eval: 30, Best: 2.5, Elapsed: 30 * time.Millisecond, Improved: true})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines (throttled middle), got %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "*") || !strings.Contains(lines[0], "eval       10") {
		t.Fatalf("first line: %q", lines[0])
	}
	if !strings.Contains(lines[1], "2.5") || !strings.Contains(lines[1], "evals/s") {
		t.Fatalf("second line: %q", lines[1])
	}
}

func TestCmdAlgosListsRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := writeAlgos(&buf, true); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cnn-layer", "gemm", "attention-score", "einsum", "fingerprint", "-shape"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("algos output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestCmdSearchErrors(t *testing.T) {
	sur := trainTinySurrogate(t)
	if err := cmdSearch([]string{"-algo", "conv1d", "-surrogate", sur}); err == nil {
		t.Fatal("search without problem accepted")
	}
	if err := cmdSearch([]string{"-algo", "conv1d", "-surrogate", "/no/such/file", "-shape", "64,3"}); err == nil {
		t.Fatal("missing surrogate file accepted")
	}
	// Wrong algorithm for the stored surrogate.
	if err := cmdSearch([]string{"-algo", "cnn-layer", "-surrogate", sur, "-problem", "ResNet_Conv_4"}); err == nil {
		t.Fatal("algorithm mismatch accepted")
	}
}

// TestCmdSearchRejectsParallelFlag pins that the retired -parallel flag
// is gone rather than silently accepted: the real binary's entry point
// exits 2 with the flag package's error. The test binary re-runs itself
// with the command line as positional arguments, and that child runs main.
func TestCmdSearchRejectsParallelFlag(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"mindmappings"}, args...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestCmdSearchRejectsParallelFlag$", "search", "-parallel", "2")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: -parallel") {
		t.Fatalf("search -parallel 2: %v, output:\n%s", err, out)
	}
}

func TestCmdTrainErrors(t *testing.T) {
	if err := cmdTrain([]string{"-algo", "no-such-workload"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := cmdTrain([]string{"-algo", "conv1d", "-config", "nope"}); err == nil {
		t.Fatal("unknown config accepted")
	}
	if err := cmdTrain([]string{
		"-algo", "conv1d", "-config", "tiny",
		"-samples", "500", "-epochs", "2",
		"-out", "/no/such/dir/x.bin",
	}); err == nil {
		t.Fatal("unwritable output accepted")
	}
}

func TestCmdSurface(t *testing.T) {
	out := filepath.Join(t.TempDir(), "surface.dat")
	if err := cmdSurface([]string{"-problem", "AlexNet_Conv_4", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty surface output")
	}
}

func TestCmdSurfaceErrors(t *testing.T) {
	if err := cmdSurface([]string{"-problem", "MTTKRP_0"}); err == nil {
		t.Fatal("non-CNN problem accepted")
	}
	if err := cmdSurface([]string{"-problem", "AlexNet_Conv_4", "-out", "/no/such/dir/s.dat"}); err == nil {
		t.Fatal("unwritable output accepted")
	}
}

// TestCmdTrainStoreAndModels drives the versioned-store workflow through
// the real command functions: train publishes into a store, a second run
// warm-starts from the first and writes its -out file byte for byte from
// the stored artifact, `models` lists both, and gc trims to one.
func TestCmdTrainStoreAndModels(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	outFile := filepath.Join(dir, "conv1d.surrogate")
	train := func(seed, warm, out string) {
		t.Helper()
		args := []string{
			"-algo", "conv1d",
			"-config", "tiny",
			"-samples", "500",
			"-epochs", "3",
			"-seed", seed,
			"-store", storeDir,
			"-out", out,
		}
		if warm != "" {
			args = append(args, "-warm", warm)
		}
		if err := cmdTrain(args); err != nil {
			t.Fatal(err)
		}
	}
	train("1", "", "") // store only
	train("2", "auto", outFile)

	st, err := modelstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	manifests := st.List()
	if len(manifests) != 2 {
		t.Fatalf("store has %d artifacts, want 2", len(manifests))
	}
	if manifests[1].Parent != manifests[0].ID {
		t.Fatalf("second run did not warm-start from the first: %+v", manifests[1])
	}
	written, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := st.Blob(manifests[1].ID)
	if sum := sha256.Sum256(written); err != nil || !bytes.Equal(written, stored) || hex.EncodeToString(sum[:])[:16] != manifests[1].ID {
		t.Fatalf("-out file (%d bytes) is not the stored artifact %s (%d bytes, %v)", len(written), manifests[1].ID, len(stored), err)
	}

	if err := cmdModels([]string{"-store", storeDir, "-v"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdModels([]string{"-store", storeDir, "-gc", "-keep", "1"}); err != nil {
		t.Fatal(err)
	}
	st2, err := modelstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	left := st2.List()
	if len(left) != 1 || left[0].Version != 2 {
		t.Fatalf("after gc: %+v", left)
	}
	if err := cmdModels([]string{"-store", storeDir, "-delete", left[0].ID}); err != nil {
		t.Fatal(err)
	}
	if err := cmdModels([]string{"-store", storeDir}); err != nil {
		t.Fatal(err) // empty listing still succeeds
	}
	if err := cmdModels([]string{}); err == nil {
		t.Fatal("models without -store succeeded")
	}
}

// TestCmdTrainNothingToProduce pins that train refuses to run with
// neither an -out file nor a -store to publish into.
func TestCmdTrainNothingToProduce(t *testing.T) {
	if err := cmdTrain([]string{"-algo", "conv1d", "-out", ""}); err == nil {
		t.Fatal("train with neither -out nor -store succeeded")
	}
}
