package surrogate

// Fingerprint-contract tests: surrogates are stamped with the workload
// identity they were trained for, and the stamp survives serialization.

import (
	"bytes"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
)

func tinyGenConfig() Config {
	cfg := TinyConfig()
	cfg.Samples = 120
	cfg.Problems = 3
	cfg.Train.Epochs = 2
	return cfg
}

func TestSurrogateLoadCarriesFingerprint(t *testing.T) {
	algo := loopnest.MustAlgorithm("conv1d")
	ds, err := Generate(algo, arch.Default(2), tinyGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	sur, _, err := Train(ds, tinyGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sur.AlgoFP != algo.Fingerprint() {
		t.Fatal("trained surrogate not stamped with the workload fingerprint")
	}
	var buf bytes.Buffer
	if err := sur.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.AlgoFP != sur.AlgoFP {
		t.Fatal("fingerprint lost in serialization")
	}
}
