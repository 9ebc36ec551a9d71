package nn

import (
	"math"

	"mindmappings/internal/mat"
)

// SGD is stochastic gradient descent with classical momentum, the paper's
// surrogate-training optimizer ("SGD optimizer with a momentum value of
// 0.9", §5.5).
type SGD struct {
	lr       float64
	momentum float64
	vel      *Grads
}

// NewSGD returns an SGD optimizer with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{lr: lr, momentum: momentum}
}

// SetLR changes the learning rate (used by the step-decay schedule).
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// LR reports the current learning rate.
func (s *SGD) LR() float64 { return s.lr }

// Step updates net in place using gradients g. The momentum state is keyed
// to the network first stepped; reusing an SGD across differently-shaped
// networks is a programming error.
func (s *SGD) Step(net *MLP, g *Grads) {
	if s.vel == nil {
		s.vel = net.NewGrads()
	}
	for i, l := range net.Layers {
		vw := s.vel.W[i]
		vw.Scale(s.momentum)
		vw.AddScaled(1, g.W[i])
		l.W.AddScaled(-s.lr, vw)

		vb := s.vel.B[i]
		mat.ScaleVec(vb, s.momentum)
		mat.AddVec(vb, g.B[i])
		mat.AddScaledVec(l.B, -s.lr, vb)
	}
}

// Adam is the Adam optimizer (Kingma & Ba), used by the DDPG
// reinforcement-learning baseline's actor and critic networks.
type Adam struct {
	lr      float64
	beta1   float64
	beta2   float64
	eps     float64
	t       int
	moment1 *Grads
	moment2 *Grads
}

// NewAdam returns an Adam optimizer with standard defaults for the decay
// rates (0.9, 0.999) and epsilon 1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
}

// Step updates net in place using gradients g, keeping per-parameter
// moments keyed to the network first stepped (as SGD.Step does).
func (a *Adam) Step(net *MLP, g *Grads) {
	if a.moment1 == nil {
		a.moment1 = net.NewGrads()
		a.moment2 = net.NewGrads()
	}
	a.t++
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, l := range net.Layers {
		m1, m2 := a.moment1.W[i].Data, a.moment2.W[i].Data
		gw := g.W[i].Data
		w := l.W.Data
		for j := range w {
			m1[j] = a.beta1*m1[j] + (1-a.beta1)*gw[j]
			m2[j] = a.beta2*m2[j] + (1-a.beta2)*gw[j]*gw[j]
			w[j] -= a.lr * (m1[j] / bc1) / (math.Sqrt(m2[j]/bc2) + a.eps)
		}
		b1, b2 := a.moment1.B[i], a.moment2.B[i]
		gb := g.B[i]
		b := l.B
		for j := range b {
			b1[j] = a.beta1*b1[j] + (1-a.beta1)*gb[j]
			b2[j] = a.beta2*b2[j] + (1-a.beta2)*gb[j]*gb[j]
			b[j] -= a.lr * (b1[j] / bc1) / (math.Sqrt(b2[j]/bc2) + a.eps)
		}
	}
}
