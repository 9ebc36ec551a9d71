package surrogate

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"mindmappings/internal/arch"
	"mindmappings/internal/nn"
	"mindmappings/internal/stats"
)

// savedSurrogate is the on-disk representation of a trained surrogate,
// bundling the network with its normalizers and metadata so Phase 2 can run
// from a file without regenerating anything.
type savedSurrogate struct {
	Magic      string
	Version    int
	AlgoName   string
	AlgoFP     string
	Arch       arch.Spec
	Mode       OutputMode
	LogOutputs bool
	NumTensors int
	InMean     []float64
	InStd      []float64
	OutMean    []float64
	OutStd     []float64
	NetBlob    []byte
}

const (
	surrogateMagic   = "mindmappings-surrogate"
	surrogateVersion = 1
)

// Save serializes the surrogate to w.
func (s *Surrogate) Save(w io.Writer) error {
	var netBuf bytes.Buffer
	if err := s.Net.Save(&netBuf); err != nil {
		return fmt.Errorf("surrogate: save: %w", err)
	}
	blob := savedSurrogate{
		Magic:      surrogateMagic,
		Version:    surrogateVersion,
		AlgoName:   s.AlgoName,
		AlgoFP:     s.AlgoFP,
		Arch:       s.Arch,
		Mode:       s.Mode,
		LogOutputs: s.LogOutputs,
		NumTensors: s.NumTensors,
		InMean:     s.InNorm.Mean,
		InStd:      s.InNorm.Std,
		OutMean:    s.OutNorm.Mean,
		OutStd:     s.OutNorm.Std,
		NetBlob:    netBuf.Bytes(),
	}
	if err := gob.NewEncoder(w).Encode(&blob); err != nil {
		return fmt.Errorf("surrogate: save: %w", err)
	}
	return nil
}

// Load deserializes a surrogate written by Save, validating the header and
// all shape relationships.
func Load(r io.Reader) (*Surrogate, error) {
	var blob savedSurrogate
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("surrogate: load: %w", err)
	}
	if blob.Magic != surrogateMagic {
		return nil, fmt.Errorf("surrogate: load: bad magic %q", blob.Magic)
	}
	if blob.Version != surrogateVersion {
		return nil, fmt.Errorf("surrogate: load: unsupported version %d", blob.Version)
	}
	net, err := nn.Load(bytes.NewReader(blob.NetBlob))
	if err != nil {
		return nil, fmt.Errorf("surrogate: load: %w", err)
	}
	if len(blob.InMean) != net.InDim() || len(blob.InStd) != net.InDim() {
		return nil, fmt.Errorf("surrogate: load: input normalizer dim %d/%d vs net %d",
			len(blob.InMean), len(blob.InStd), net.InDim())
	}
	if len(blob.OutMean) != net.OutDim() || len(blob.OutStd) != net.OutDim() {
		return nil, fmt.Errorf("surrogate: load: output normalizer dim %d/%d vs net %d",
			len(blob.OutMean), len(blob.OutStd), net.OutDim())
	}
	switch blob.Mode {
	case OutputMetaStats:
		totalIdx, _, cyclesIdx := metaIndices(blob.NumTensors)
		if cyclesIdx >= net.OutDim() || totalIdx < 0 {
			return nil, fmt.Errorf("surrogate: load: %d tensors inconsistent with %d outputs",
				blob.NumTensors, net.OutDim())
		}
	case OutputDirectEDP:
	default:
		return nil, fmt.Errorf("surrogate: load: unknown output mode %d", blob.Mode)
	}
	return &Surrogate{
		AlgoName:   blob.AlgoName,
		AlgoFP:     blob.AlgoFP,
		Arch:       blob.Arch,
		Net:        net,
		InNorm:     &stats.Normalizer{Mean: blob.InMean, Std: blob.InStd},
		OutNorm:    &stats.Normalizer{Mean: blob.OutMean, Std: blob.OutStd},
		Mode:       blob.Mode,
		LogOutputs: blob.LogOutputs,
		NumTensors: blob.NumTensors,
	}, nil
}
