package nn

import (
	"fmt"
	"math"
)

// Loss is a differentiable training criterion over prediction/target vector
// pairs. Eval returns the scalar loss and writes dLoss/dPred into grad
// (which must have the same length as pred).
//
// The paper (§5.5, Figure 7b) compares MSE, MAE and Huber and selects Huber:
// "Huber loss is similar to MSE when variations are small and is similar to
// MAE when the variations are larger".
type Loss interface {
	Name() string
	Eval(pred, target, grad []float64) float64
}

func checkLossShapes(pred, target, grad []float64) {
	if len(pred) != len(target) || len(pred) != len(grad) {
		panic(fmt.Sprintf("nn: loss shapes pred=%d target=%d grad=%d",
			len(pred), len(target), len(grad)))
	}
	if len(pred) == 0 {
		panic("nn: loss on empty vectors")
	}
}

// MSE is the mean squared error (1/n)Σ(p−t)².
type MSE struct{}

// Name implements Loss.
func (MSE) Name() string { return "mse" }

// Eval implements Loss.
func (MSE) Eval(pred, target, grad []float64) float64 {
	checkLossShapes(pred, target, grad)
	n := float64(len(pred))
	sum := 0.0
	for i := range pred {
		d := pred[i] - target[i]
		sum += d * d
		grad[i] = 2 * d / n
	}
	return sum / n
}

// MAE is the mean absolute error (1/n)Σ|p−t|. The subgradient at 0 is 0.
type MAE struct{}

// Name implements Loss.
func (MAE) Name() string { return "mae" }

// Eval implements Loss.
func (MAE) Eval(pred, target, grad []float64) float64 {
	checkLossShapes(pred, target, grad)
	n := float64(len(pred))
	sum := 0.0
	for i := range pred {
		d := pred[i] - target[i]
		sum += math.Abs(d)
		switch {
		case d > 0:
			grad[i] = 1 / n
		case d < 0:
			grad[i] = -1 / n
		default:
			grad[i] = 0
		}
	}
	return sum / n
}

// Huber is the Huber loss with threshold Delta: quadratic within ±Delta of
// the target and linear outside, balancing MSE's outlier sensitivity against
// MAE's flat gradients (paper §5.5). A non-positive Delta is treated as 1.
type Huber struct{ Delta float64 }

// Name implements Loss.
func (Huber) Name() string { return "huber" }

// Eval implements Loss.
func (h Huber) Eval(pred, target, grad []float64) float64 {
	checkLossShapes(pred, target, grad)
	delta := h.Delta
	if delta <= 0 {
		delta = 1
	}
	n := float64(len(pred))
	sum := 0.0
	for i := range pred {
		d := pred[i] - target[i]
		if math.Abs(d) <= delta {
			sum += 0.5 * d * d
			grad[i] = d / n
		} else {
			sum += delta * (math.Abs(d) - 0.5*delta)
			if d > 0 {
				grad[i] = delta / n
			} else {
				grad[i] = -delta / n
			}
		}
	}
	return sum / n
}
