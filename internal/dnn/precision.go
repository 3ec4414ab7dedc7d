package dnn

import (
	"fmt"
	"strings"

	"offloadnn/internal/tensor"
)

// Precision threading: a block instantiated at f32 or i8 keeps its float64
// master weights (training, serialization and weight sharing are untouched)
// and additionally caches prepared narrow weights for the reduced-precision
// inference kernels. SetPrecision builds those caches eagerly so the
// steady-state Forward path allocates nothing; calling it again rebuilds
// them after the master weights change.

// BlockIDPrecision splits a catalog block ID into its base ID and the
// precision variant named by an "@f32"/"@i8" suffix ("@f64" is accepted
// and redundant). The suffix is how quantization is surfaced to the
// solver: "base/s3@i8" is a distinct priced block variant of "base/s3",
// but shares its trained weights — callers strip the suffix before
// resolving seeds and prune ratios.
func BlockIDPrecision(id string) (string, tensor.Precision, error) {
	i := strings.LastIndex(id, "@")
	if i < 0 {
		return id, tensor.F64, nil
	}
	p, err := tensor.ParsePrecision(id[i+1:])
	if err != nil {
		return "", tensor.F64, fmt.Errorf("dnn: block id %q: %w", id, err)
	}
	return id[:i], p, nil
}

// precisioned is implemented by layers that own weight tensors and can
// instantiate narrow kernel caches for them.
type precisioned interface {
	SetPrecision(tensor.Precision) error
	Precision() tensor.Precision
}

// calibratable is implemented by layers that record activation ranges
// during a calibration pass.
type calibratable interface {
	setCalibrating(bool)
}

// SetPrecision selects the inference kernel precision of the convolution
// and (re)builds the prepared weight cache from the current master
// weights. The calibrated activation scale survives precision changes.
func (l *convLayer) SetPrecision(p tensor.Precision) error {
	switch p {
	case tensor.F64:
		l.w32, l.w8 = nil, nil
	case tensor.F32:
		w32, err := tensor.PrepareConvWeightsF32(l.W, l.P)
		if err != nil {
			return fmt.Errorf("conv %s: %w", l.name, err)
		}
		l.w32, l.w8 = w32, nil
	case tensor.I8:
		w8, err := tensor.PrepareConvWeightsI8(l.W, l.P)
		if err != nil {
			return fmt.Errorf("conv %s: %w", l.name, err)
		}
		l.w32, l.w8 = nil, w8
	default:
		return fmt.Errorf("conv %s: invalid precision %v", l.name, p)
	}
	l.prec = p
	return nil
}

// Precision returns the configured inference precision.
func (l *convLayer) Precision() tensor.Precision { return l.prec }

func (l *convLayer) setCalibrating(on bool) { l.calib = on }

// observe widens the recorded activation range with the current input.
func (l *convLayer) observe(x *tensor.Tensor) {
	if s := tensor.SymmetricScale(x.Data()); s > l.actScale {
		l.actScale = s
	}
}

// SetPrecision selects the inference kernel precision of the linear layer;
// see convLayer.SetPrecision.
func (l *linearLayer) SetPrecision(p tensor.Precision) error {
	switch p {
	case tensor.F64:
		l.w32, l.w8 = nil, nil
	case tensor.F32:
		w32, err := tensor.PrepareLinearWeightsF32(l.W)
		if err != nil {
			return fmt.Errorf("linear %s: %w", l.name, err)
		}
		l.w32, l.w8 = w32, nil
	case tensor.I8:
		w8, err := tensor.PrepareLinearWeightsI8(l.W)
		if err != nil {
			return fmt.Errorf("linear %s: %w", l.name, err)
		}
		l.w32, l.w8 = nil, w8
	default:
		return fmt.Errorf("linear %s: invalid precision %v", l.name, p)
	}
	l.prec = p
	return nil
}

// Precision returns the configured inference precision.
func (l *linearLayer) Precision() tensor.Precision { return l.prec }

func (l *linearLayer) setCalibrating(on bool) { l.calib = on }

func (l *linearLayer) observe(x *tensor.Tensor) {
	if s := tensor.SymmetricScale(x.Data()); s > l.actScale {
		l.actScale = s
	}
}

// SetPrecision propagates the precision to every convolution of the
// residual unit. Batch norm, the ReLUs and the residual add stay in
// float64 — they are cheap elementwise passes over the f64 interchange
// tensors.
func (b *basicBlock) SetPrecision(p tensor.Precision) error {
	if err := b.Conv1.SetPrecision(p); err != nil {
		return fmt.Errorf("block %s: %w", b.name, err)
	}
	if err := b.Conv2.SetPrecision(p); err != nil {
		return fmt.Errorf("block %s: %w", b.name, err)
	}
	if b.DownConv != nil {
		if err := b.DownConv.SetPrecision(p); err != nil {
			return fmt.Errorf("block %s: %w", b.name, err)
		}
	}
	return nil
}

// Precision returns the configured inference precision.
func (b *basicBlock) Precision() tensor.Precision { return b.Conv1.Precision() }

func (b *basicBlock) setCalibrating(on bool) {
	b.Conv1.calib = on
	b.Conv2.calib = on
	if b.DownConv != nil {
		b.DownConv.calib = on
	}
}

// SetPrecision propagates the precision to every convolution of the
// inverted-residual unit; see basicBlock.SetPrecision.
func (b *invertedResidual) SetPrecision(p tensor.Precision) error {
	for _, l := range []*convLayer{b.Expand, b.Mid, b.Proj} {
		if err := l.SetPrecision(p); err != nil {
			return fmt.Errorf("block %s: %w", b.name, err)
		}
	}
	return nil
}

// Precision returns the configured inference precision.
func (b *invertedResidual) Precision() tensor.Precision { return b.Expand.Precision() }

func (b *invertedResidual) setCalibrating(on bool) {
	b.Expand.calib = on
	b.Mid.calib = on
	b.Proj.calib = on
}

// SetPrecision instantiates the block's inference kernels at the given
// precision, eagerly building the narrow weight caches. The precision is
// a property of the deployed block (the paper's s^d): the solver prices
// "@f32"/"@i8" block variants separately, and MemoryBytes charges i8
// blocks one byte per parameter.
func (b *Block) SetPrecision(p tensor.Precision) error {
	if !p.Valid() {
		return fmt.Errorf("dnn: block %s: invalid precision %d", b.ID, p)
	}
	for _, l := range b.layers {
		if pl, ok := l.(precisioned); ok {
			if err := pl.SetPrecision(p); err != nil {
				return fmt.Errorf("dnn: block %s: %w", b.ID, err)
			}
		}
	}
	b.precision = p
	return nil
}

// Precision returns the precision the block is instantiated at (F64 for
// blocks that never saw SetPrecision).
func (b *Block) Precision() tensor.Precision { return b.precision }

func (b *Block) setCalibrating(on bool) {
	for _, l := range b.layers {
		if cl, ok := l.(calibratable); ok {
			cl.setCalibrating(on)
		}
	}
}

// SetPrecision instantiates every block of the model at the given
// precision. Models sharing blocks see the change too — precision is
// per-block state, exactly like weights.
func (m *Model) SetPrecision(p tensor.Precision) error {
	for _, b := range m.Blocks {
		if err := b.SetPrecision(p); err != nil {
			return fmt.Errorf("model %s: %w", m.arch, err)
		}
	}
	return nil
}
