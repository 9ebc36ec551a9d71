package nn

import (
	"encoding/gob"
	"fmt"
	"io"

	"mindmappings/internal/mat"
)

// savedMLP is the on-disk representation of a trained network. Hidden names
// the hidden activation; ReLU ("relu") is the only one, and Load rejects
// any other name rather than run a net with the wrong nonlinearity.
type savedMLP struct {
	Magic   string
	Version int
	Sizes   []int
	Hidden  string
	Weights [][]float64 // row-major per layer
	Biases  [][]float64
}

const (
	mlpMagic   = "mindmappings-mlp"
	mlpVersion = 1
	mlpHidden  = "relu"
)

// Save serializes the network to w in a gob-based format readable by Load.
func (n *MLP) Save(w io.Writer) error {
	s := savedMLP{
		Magic:   mlpMagic,
		Version: mlpVersion,
		Sizes:   n.Sizes,
		Hidden:  mlpHidden,
	}
	for _, l := range n.Layers {
		s.Weights = append(s.Weights, l.W.Data)
		s.Biases = append(s.Biases, l.B)
	}
	if err := gob.NewEncoder(w).Encode(&s); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// Load deserializes a network previously written by Save, validating the
// header and every layer shape so corrupt or truncated files fail loudly
// rather than producing a silently broken model.
func Load(r io.Reader) (*MLP, error) {
	var s savedMLP
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	if s.Magic != mlpMagic {
		return nil, fmt.Errorf("nn: load: bad magic %q", s.Magic)
	}
	if s.Version != mlpVersion {
		return nil, fmt.Errorf("nn: load: unsupported version %d", s.Version)
	}
	if len(s.Sizes) < 2 {
		return nil, fmt.Errorf("nn: load: invalid sizes %v", s.Sizes)
	}
	if s.Hidden != mlpHidden {
		return nil, fmt.Errorf("nn: load: unsupported hidden activation %q (only %q)", s.Hidden, mlpHidden)
	}
	nLayers := len(s.Sizes) - 1
	if len(s.Weights) != nLayers || len(s.Biases) != nLayers {
		return nil, fmt.Errorf("nn: load: %d weight / %d bias blocks for %d layers",
			len(s.Weights), len(s.Biases), nLayers)
	}
	net := &MLP{Sizes: s.Sizes}
	for i := 0; i < nLayers; i++ {
		out, in := s.Sizes[i+1], s.Sizes[i]
		if len(s.Weights[i]) != out*in {
			return nil, fmt.Errorf("nn: load: layer %d has %d weights, want %d",
				i, len(s.Weights[i]), out*in)
		}
		if len(s.Biases[i]) != out {
			return nil, fmt.Errorf("nn: load: layer %d has %d biases, want %d",
				i, len(s.Biases[i]), out)
		}
		net.Layers = append(net.Layers, &DenseLayer{
			W: &mat.Dense{Rows: out, Cols: in, Data: s.Weights[i]},
			B: s.Biases[i],
		})
	}
	return net, nil
}
