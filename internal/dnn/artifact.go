package dnn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"offloadnn/internal/tensor"
)

// Binary weight artifact (.dnnw): the one weight codec, and the storage
// format of the paper's "DNN repository" (Fig. 4) — trained block weights
// are stored at the edge and activated on demand when the controller
// deploys a configuration. The layout is
//
//	[8]  magic "ODNNWA1\x00"
//	[4]  uint32 LE manifest length
//	[M]  manifest JSON (structure, tensor refs, per-block SHA-256)
//	[W]  raw weights: little-endian float64, tensors back to back
//
// Every tensor in the manifest is a {off,len} reference into the single
// weights section. LoadArtifact decodes that section into ONE []float64
// buffer and aliases every parameter tensor into it via tensor.FromSlice,
// so installing an epoch's models copies no weight data: blocks shared
// within the artifact alias the same *Block, and all their tensors are
// windows over the one buffer. Per-block SHA-256 checksums over the
// block's weight region reject torn or corrupted artifacts before any
// tensor is built.

const artifactMagic = "ODNNWA1\x00"

type artifactManifest struct {
	Arch        string          `json:"arch"`
	BlockIDs    []string        `json:"block_ids"`
	Blocks      []artifactBlock `json:"blocks"`
	WeightElems int             `json:"weight_elems"`
}

type artifactBlock struct {
	ID         string          `json:"id"`
	Stage      int             `json:"stage"`
	Variant    int             `json:"variant"`
	PruneRatio float64         `json:"prune_ratio,omitempty"`
	Frozen     bool            `json:"frozen,omitempty"`
	Precision  string          `json:"precision,omitempty"`
	WOff       int             `json:"woff"` // block weight region, in f64 elements
	WLen       int             `json:"wlen"`
	SHA256     string          `json:"sha256"` // hex digest of the region's bytes
	Layers     []artifactLayer `json:"layers"`
}

type artifactLayer struct {
	Kind   string          `json:"kind"`
	Name   string          `json:"name"`
	Conv   *artifactConv   `json:"conv,omitempty"`
	BN     *artifactBN     `json:"bn,omitempty"`
	Pool   *artifactPool   `json:"pool,omitempty"`
	Linear *artifactLinear `json:"linear,omitempty"`
	Basic  *artifactBasic  `json:"basic,omitempty"`
}

// artifactRef locates one tensor inside the weights section.
type artifactRef struct {
	Off int `json:"off"`
	Len int `json:"len"`
}

type artifactConv struct {
	In       int          `json:"in"`
	Out      int          `json:"out"`
	Kernel   int          `json:"kernel"`
	Stride   int          `json:"stride"`
	Padding  int          `json:"padding"`
	W        artifactRef  `json:"w"`
	B        *artifactRef `json:"b,omitempty"`
	ActScale float64      `json:"act_scale,omitempty"`
}

type artifactBN struct {
	Channels int         `json:"channels"`
	Gamma    artifactRef `json:"gamma"`
	Beta     artifactRef `json:"beta"`
	Mean     artifactRef `json:"mean"`
	Var      artifactRef `json:"var"`
	Momentum float64     `json:"momentum"`
	Eps      float64     `json:"eps"`
}

type artifactPool struct {
	Kernel  int `json:"kernel"`
	Stride  int `json:"stride"`
	Padding int `json:"padding"`
}

type artifactLinear struct {
	In       int         `json:"in"`
	Out      int         `json:"out"`
	W        artifactRef `json:"w"`
	B        artifactRef `json:"b"`
	ActScale float64     `json:"act_scale,omitempty"`
}

type artifactBasic struct {
	Conv1  *artifactConv `json:"conv1"`
	Conv2  *artifactConv `json:"conv2"`
	Down   *artifactConv `json:"down,omitempty"`
	BN1    *artifactBN   `json:"bn1"`
	BN2    *artifactBN   `json:"bn2"`
	DownBN *artifactBN   `json:"downbn,omitempty"`
}

// artifactWriter accumulates the weights section while the structure walk
// emits refs.
type artifactWriter struct {
	weights []float64
}

func (aw *artifactWriter) add(t *tensor.Tensor) artifactRef {
	off := len(aw.weights)
	aw.weights = append(aw.weights, t.Data()...)
	return artifactRef{Off: off, Len: t.Len()}
}

// SaveArtifact writes the model as a binary weight artifact.
func SaveArtifact(w io.Writer, m *Model) error {
	var aw artifactWriter
	man := artifactManifest{Arch: m.Arch}
	seen := make(map[string]bool, len(m.Blocks))
	for _, b := range m.Blocks {
		man.BlockIDs = append(man.BlockIDs, b.ID)
		if seen[b.ID] {
			continue
		}
		seen[b.ID] = true
		ab, err := encodeArtifactBlock(b, &aw)
		if err != nil {
			return fmt.Errorf("dnn: artifact save block %s: %w", b.ID, err)
		}
		man.Blocks = append(man.Blocks, ab)
	}
	man.WeightElems = len(aw.weights)

	raw := f64Bytes(aw.weights)
	for i := range man.Blocks {
		ab := &man.Blocks[i]
		sum := sha256.Sum256(raw[ab.WOff*8 : (ab.WOff+ab.WLen)*8])
		ab.SHA256 = hex.EncodeToString(sum[:])
	}
	manJSON, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("dnn: artifact save %s: %w", m.Arch, err)
	}
	if _, err := io.WriteString(w, artifactMagic); err != nil {
		return fmt.Errorf("dnn: artifact save %s: %w", m.Arch, err)
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(manJSON)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("dnn: artifact save %s: %w", m.Arch, err)
	}
	if _, err := w.Write(manJSON); err != nil {
		return fmt.Errorf("dnn: artifact save %s: %w", m.Arch, err)
	}
	if _, err := w.Write(raw); err != nil {
		return fmt.Errorf("dnn: artifact save %s: %w", m.Arch, err)
	}
	return nil
}

// LoadArtifact reconstructs a model from a binary weight artifact. All
// parameter tensors alias one shared []float64 buffer (zero weight
// copies); the returned size is the weight section's bytes, which is the
// model's resident weight footprint. Blocks that were aliased in the
// saved model are aliased again.
func LoadArtifact(r io.Reader) (*Model, int64, error) {
	header := make([]byte, len(artifactMagic)+4)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, 0, fmt.Errorf("dnn: artifact load: header: %w", err)
	}
	if string(header[:len(artifactMagic)]) != artifactMagic {
		return nil, 0, fmt.Errorf("dnn: artifact load: bad magic %q", header[:len(artifactMagic)])
	}
	manLen := binary.LittleEndian.Uint32(header[len(artifactMagic):])
	manJSON := make([]byte, manLen)
	if _, err := io.ReadFull(r, manJSON); err != nil {
		return nil, 0, fmt.Errorf("dnn: artifact load: manifest: %w", err)
	}
	var man artifactManifest
	if err := json.Unmarshal(manJSON, &man); err != nil {
		return nil, 0, fmt.Errorf("dnn: artifact load: manifest: %w", err)
	}
	if man.WeightElems < 0 {
		return nil, 0, fmt.Errorf("dnn: artifact load: negative weight count %d", man.WeightElems)
	}
	raw := make([]byte, man.WeightElems*8)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, 0, fmt.Errorf("dnn: artifact load: weights: %w", err)
	}

	// Verify every block's checksum before building anything.
	for _, ab := range man.Blocks {
		if ab.WOff < 0 || ab.WLen < 0 || ab.WOff+ab.WLen > man.WeightElems {
			return nil, 0, fmt.Errorf("dnn: artifact load: block %s region [%d,%d) outside weights",
				ab.ID, ab.WOff, ab.WOff+ab.WLen)
		}
		sum := sha256.Sum256(raw[ab.WOff*8 : (ab.WOff+ab.WLen)*8])
		if hex.EncodeToString(sum[:]) != ab.SHA256 {
			return nil, 0, fmt.Errorf("dnn: artifact load: block %s checksum mismatch", ab.ID)
		}
	}

	// The one shared buffer every tensor below aliases into.
	buf := bytesF64(raw)
	ar := &artifactReader{buf: buf}
	cache := make(map[string]*Block, len(man.Blocks))
	for _, ab := range man.Blocks {
		b, err := decodeArtifactBlock(ab, ar)
		if err != nil {
			return nil, 0, fmt.Errorf("dnn: artifact load block %s: %w", ab.ID, err)
		}
		cache[ab.ID] = b
	}
	m := &Model{Arch: man.Arch}
	for _, id := range man.BlockIDs {
		b, ok := cache[id]
		if !ok {
			return nil, 0, fmt.Errorf("dnn: artifact load: block %q missing from manifest", id)
		}
		m.Blocks = append(m.Blocks, b)
	}
	return m, int64(len(raw)), nil
}

type artifactReader struct {
	buf []float64
}

// alias builds a tensor over the shared buffer without copying.
func (ar *artifactReader) alias(ref artifactRef, shape ...int) (*tensor.Tensor, error) {
	if ref.Off < 0 || ref.Len < 0 || ref.Off+ref.Len > len(ar.buf) {
		return nil, fmt.Errorf("weight ref [%d,%d) outside buffer of %d", ref.Off, ref.Off+ref.Len, len(ar.buf))
	}
	return tensor.FromSlice(ar.buf[ref.Off:ref.Off+ref.Len], shape...)
}

func encodeArtifactBlock(b *Block, aw *artifactWriter) (artifactBlock, error) {
	ab := artifactBlock{
		ID:         b.ID,
		Stage:      b.Stage,
		Variant:    int(b.Variant),
		PruneRatio: b.PruneRatio,
		Frozen:     b.Frozen,
		Precision:  b.precision.String(),
		WOff:       len(aw.weights),
	}
	for _, l := range b.layers {
		al, err := encodeArtifactLayer(l, aw)
		if err != nil {
			return artifactBlock{}, err
		}
		ab.Layers = append(ab.Layers, al)
	}
	ab.WLen = len(aw.weights) - ab.WOff
	return ab, nil
}

func encodeArtifactLayer(l Layer, aw *artifactWriter) (artifactLayer, error) {
	switch v := l.(type) {
	case *ConvLayer:
		return artifactLayer{Kind: "conv", Name: v.name, Conv: encodeArtifactConv(v, aw)}, nil
	case *BatchNormLayer:
		return artifactLayer{Kind: "bn", Name: v.name, BN: encodeArtifactBN(v, aw)}, nil
	case *ReLULayer:
		return artifactLayer{Kind: "relu", Name: v.name}, nil
	case *MaxPoolLayer:
		return artifactLayer{Kind: "maxpool", Name: v.name,
			Pool: &artifactPool{Kernel: v.P.Kernel, Stride: v.P.Stride, Padding: v.P.Padding}}, nil
	case *GlobalAvgPoolLayer:
		return artifactLayer{Kind: "gap", Name: v.name}, nil
	case *LinearLayer:
		return artifactLayer{Kind: "linear", Name: v.name, Linear: &artifactLinear{
			In: v.W.Dim(1), Out: v.W.Dim(0),
			W: aw.add(v.W), B: aw.add(v.B), ActScale: v.actScale,
		}}, nil
	case *BasicBlock:
		ab := &artifactBasic{
			Conv1: encodeArtifactConv(v.Conv1, aw), BN1: encodeArtifactBN(v.BN1, aw),
			Conv2: encodeArtifactConv(v.Conv2, aw), BN2: encodeArtifactBN(v.BN2, aw),
		}
		if v.DownConv != nil {
			ab.Down = encodeArtifactConv(v.DownConv, aw)
			ab.DownBN = encodeArtifactBN(v.DownBN, aw)
		}
		return artifactLayer{Kind: "basic", Name: v.name, Basic: ab}, nil
	default:
		return artifactLayer{}, fmt.Errorf("unsupported layer type %T", l)
	}
}

func encodeArtifactConv(c *ConvLayer, aw *artifactWriter) *artifactConv {
	ac := &artifactConv{
		In: c.P.InChannels, Out: c.P.OutChannels,
		Kernel: c.P.Kernel, Stride: c.P.Stride, Padding: c.P.Padding,
		W: aw.add(c.W), ActScale: c.actScale,
	}
	if c.B != nil {
		ref := aw.add(c.B)
		ac.B = &ref
	}
	return ac
}

func encodeArtifactBN(b *BatchNormLayer, aw *artifactWriter) *artifactBN {
	s := b.State
	return &artifactBN{
		Channels: s.Channels(),
		Gamma:    aw.add(s.Gamma), Beta: aw.add(s.Beta),
		Mean: aw.add(s.RunningMean), Var: aw.add(s.RunningVar),
		Momentum: s.Momentum, Eps: s.Eps,
	}
}

func decodeArtifactBlock(ab artifactBlock, ar *artifactReader) (*Block, error) {
	layers := make([]Layer, 0, len(ab.Layers))
	for _, al := range ab.Layers {
		l, err := decodeArtifactLayer(al, ar)
		if err != nil {
			return nil, err
		}
		layers = append(layers, l)
	}
	b := NewBlock(ab.ID, ab.Stage, Variant(ab.Variant), layers...)
	b.PruneRatio = ab.PruneRatio
	b.Frozen = ab.Frozen
	p, err := tensor.ParsePrecision(ab.Precision)
	if err != nil {
		return nil, err
	}
	if p != tensor.F64 {
		if err := b.SetPrecision(p); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func decodeArtifactLayer(al artifactLayer, ar *artifactReader) (Layer, error) {
	switch al.Kind {
	case "conv":
		return decodeArtifactConv(al.Name, al.Conv, ar)
	case "bn":
		return decodeArtifactBN(al.Name, al.BN, ar)
	case "relu":
		return NewReLULayer(al.Name), nil
	case "maxpool":
		if al.Pool == nil {
			return nil, fmt.Errorf("missing pool payload for %s", al.Name)
		}
		return NewMaxPoolLayer(al.Name, tensor.PoolParams{
			Kernel: al.Pool.Kernel, Stride: al.Pool.Stride, Padding: al.Pool.Padding,
		}), nil
	case "gap":
		return NewGlobalAvgPoolLayer(al.Name), nil
	case "linear":
		if al.Linear == nil {
			return nil, fmt.Errorf("missing linear payload for %s", al.Name)
		}
		w, err := ar.alias(al.Linear.W, al.Linear.Out, al.Linear.In)
		if err != nil {
			return nil, fmt.Errorf("linear %s weights: %w", al.Name, err)
		}
		bt, err := ar.alias(al.Linear.B, al.Linear.Out)
		if err != nil {
			return nil, fmt.Errorf("linear %s bias: %w", al.Name, err)
		}
		return &LinearLayer{
			name: al.Name, W: w, B: bt,
			dW:       tensor.New(al.Linear.Out, al.Linear.In),
			dB:       tensor.New(al.Linear.Out),
			actScale: al.Linear.ActScale,
		}, nil
	case "basic":
		if al.Basic == nil {
			return nil, fmt.Errorf("missing basic-block payload for %s", al.Name)
		}
		conv1, err := decodeArtifactConv(al.Name+".conv1", al.Basic.Conv1, ar)
		if err != nil {
			return nil, err
		}
		conv2, err := decodeArtifactConv(al.Name+".conv2", al.Basic.Conv2, ar)
		if err != nil {
			return nil, err
		}
		bn1, err := decodeArtifactBN(al.Name+".bn1", al.Basic.BN1, ar)
		if err != nil {
			return nil, err
		}
		bn2, err := decodeArtifactBN(al.Name+".bn2", al.Basic.BN2, ar)
		if err != nil {
			return nil, err
		}
		b := &BasicBlock{
			name:  al.Name,
			Conv1: conv1, BN1: bn1, Relu1: NewReLULayer(al.Name + ".relu1"),
			Conv2: conv2, BN2: bn2,
		}
		if al.Basic.Down != nil {
			if b.DownConv, err = decodeArtifactConv(al.Name+".down", al.Basic.Down, ar); err != nil {
				return nil, err
			}
			if b.DownBN, err = decodeArtifactBN(al.Name+".downbn", al.Basic.DownBN, ar); err != nil {
				return nil, err
			}
		}
		return b, nil
	default:
		return nil, fmt.Errorf("unknown layer kind %q", al.Kind)
	}
}

func decodeArtifactConv(name string, ac *artifactConv, ar *artifactReader) (*ConvLayer, error) {
	if ac == nil {
		return nil, fmt.Errorf("missing conv payload for %s", name)
	}
	p := tensor.Conv2DParams{
		InChannels: ac.In, OutChannels: ac.Out,
		Kernel: ac.Kernel, Stride: ac.Stride, Padding: ac.Padding,
	}
	w, err := ar.alias(ac.W, ac.Out, ac.In, ac.Kernel, ac.Kernel)
	if err != nil {
		return nil, fmt.Errorf("conv %s weights: %w", name, err)
	}
	l := &ConvLayer{name: name, P: p, W: w, actScale: ac.ActScale}
	l.dW = tensor.New(ac.Out, ac.In, ac.Kernel, ac.Kernel)
	if ac.B != nil {
		bt, err := ar.alias(*ac.B, ac.Out)
		if err != nil {
			return nil, fmt.Errorf("conv %s bias: %w", name, err)
		}
		l.B = bt
		l.dB = tensor.New(ac.Out)
	}
	return l, nil
}

func decodeArtifactBN(name string, ab *artifactBN, ar *artifactReader) (*BatchNormLayer, error) {
	if ab == nil {
		return nil, fmt.Errorf("missing batchnorm payload for %s", name)
	}
	gamma, err := ar.alias(ab.Gamma, ab.Channels)
	if err != nil {
		return nil, fmt.Errorf("bn %s gamma: %w", name, err)
	}
	beta, err := ar.alias(ab.Beta, ab.Channels)
	if err != nil {
		return nil, fmt.Errorf("bn %s beta: %w", name, err)
	}
	mean, err := ar.alias(ab.Mean, ab.Channels)
	if err != nil {
		return nil, fmt.Errorf("bn %s mean: %w", name, err)
	}
	vr, err := ar.alias(ab.Var, ab.Channels)
	if err != nil {
		return nil, fmt.Errorf("bn %s var: %w", name, err)
	}
	return &BatchNormLayer{
		name: name,
		State: &tensor.BatchNormState{
			Gamma: gamma, Beta: beta, RunningMean: mean, RunningVar: vr,
			Momentum: ab.Momentum, Eps: ab.Eps,
		},
		dGamma: tensor.New(ab.Channels),
		dBeta:  tensor.New(ab.Channels),
	}, nil
}

// f64Bytes serializes float64s to little-endian bytes.
func f64Bytes(src []float64) []byte {
	out := make([]byte, len(src)*8)
	for i, v := range src {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// bytesF64 decodes little-endian bytes into one float64 buffer — the
// single allocation every artifact tensor aliases.
func bytesF64(raw []byte) []float64 {
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out
}
