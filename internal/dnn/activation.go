package dnn

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Activation envelope: the wire format of a mid-path boundary
// activation handed from one segment's node to the next:
//
//	[8]  magic "ODNNACT1"
//	[4]  uint32 LE manifest length
//	[M]  manifest JSON (routing, shape, deadline budget, hop trail)
//	[W]  raw activation: little-endian float64, one frame
//
// The payload is always float64, the inter-block interchange format,
// which is what makes a split path bit-identical to the whole one: the
// receiver resumes from exactly the values the sender's last block
// produced.

const activationMagic = "ODNNACT1"

// maxActivationManifest bounds the manifest a receiver will parse.
const maxActivationManifest = 1 << 20

// maxActivationElems bounds the payload a shape may claim: 1 Mi float64s
// (8 MiB), far beyond any boundary this model family produces. The
// decoder reads no more than the header, a capped manifest and this
// payload, so it is also the bound on a /v1/stage body.
const maxActivationElems = 1 << 20

// ActivationHop is one completed hop's accounting, accumulated in the
// envelope as the activation travels so the tail node can report the
// full per-hop breakdown to the client.
type ActivationHop struct {
	Node            string  `json:"node"`
	LatencyMS       float64 `json:"latency_ms"`
	ActivationBytes int     `json:"activation_bytes,omitempty"`
}

// ActivationManifest routes a boundary activation to the segment that
// consumes it and carries the remaining deadline budget across the hop.
type ActivationManifest struct {
	// Task and Path identify the split plan the activation belongs to.
	Task string `json:"task"`
	Path string `json:"path"`
	// From is the stage index (0-based into the path's block list) the
	// receiving segment resumes at; it must match the receiver's
	// installed stage range.
	From int `json:"from"`
	// Shape is the activation's (C, H, W).
	Shape [3]int `json:"shape"`
	// RemainingMS is the deadline budget left when the sender emitted
	// the envelope; zero means the request carries no deadline, and the
	// receiver rejects negative budgets instead of doing work the client
	// will never accept.
	RemainingMS float64 `json:"remaining_ms"`
	// BudgetMS is the original end-to-end budget, for reporting.
	BudgetMS float64 `json:"budget_ms,omitempty"`
	// Hops is the trail of completed hops, oldest first.
	Hops []ActivationHop `json:"hops,omitempty"`
}

// EncodeActivation writes one frame's boundary activation as an
// envelope.
func EncodeActivation(w io.Writer, man ActivationManifest, data []float64) error {
	n, err := activationElems(man.Shape)
	if err != nil {
		return fmt.Errorf("dnn: activation encode: %w", err)
	}
	if n != len(data) {
		return fmt.Errorf("dnn: activation encode: shape %v wants %d elems, have %d", man.Shape, n, len(data))
	}
	manJSON, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("dnn: activation encode: %w", err)
	}
	if _, err := io.WriteString(w, activationMagic); err != nil {
		return fmt.Errorf("dnn: activation encode: %w", err)
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(manJSON)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("dnn: activation encode: %w", err)
	}
	if _, err := w.Write(manJSON); err != nil {
		return fmt.Errorf("dnn: activation encode: %w", err)
	}
	if _, err := w.Write(f64Bytes(data)); err != nil {
		return fmt.Errorf("dnn: activation encode: %w", err)
	}
	return nil
}

// DecodeActivation reads one envelope, validating the magic and that
// the payload matches the manifest's shape. The shape is bounded before
// the payload is allocated, so the decoder never reads or allocates more
// than a header, maxActivationManifest and maxActivationElems float64s.
func DecodeActivation(r io.Reader) (ActivationManifest, []float64, error) {
	var man ActivationManifest
	header := make([]byte, len(activationMagic)+4)
	if _, err := io.ReadFull(r, header); err != nil {
		return man, nil, fmt.Errorf("dnn: activation decode: header: %w", err)
	}
	if string(header[:len(activationMagic)]) != activationMagic {
		return man, nil, fmt.Errorf("dnn: activation decode: bad magic %q", header[:len(activationMagic)])
	}
	manLen := binary.LittleEndian.Uint32(header[len(activationMagic):])
	if manLen > maxActivationManifest {
		return man, nil, fmt.Errorf("dnn: activation decode: manifest of %d bytes exceeds cap", manLen)
	}
	manJSON := make([]byte, manLen)
	if _, err := io.ReadFull(r, manJSON); err != nil {
		return man, nil, fmt.Errorf("dnn: activation decode: manifest: %w", err)
	}
	if err := json.Unmarshal(manJSON, &man); err != nil {
		return man, nil, fmt.Errorf("dnn: activation decode: manifest: %w", err)
	}
	elems, err := activationElems(man.Shape)
	if err != nil {
		return man, nil, fmt.Errorf("dnn: activation decode: %w", err)
	}
	raw := make([]byte, elems*8)
	if _, err := io.ReadFull(r, raw); err != nil {
		return man, nil, fmt.Errorf("dnn: activation decode: payload: %w", err)
	}
	return man, bytesF64(raw), nil
}

// activationElems is the element count of shape: every dimension at
// least 1 and the product, computed without overflow, at most
// maxActivationElems.
func activationElems(shape [3]int) (int, error) {
	n := 1
	for _, d := range shape {
		if d < 1 {
			return 0, fmt.Errorf("degenerate shape %v", shape)
		}
		if d > maxActivationElems/n {
			return 0, fmt.Errorf("shape %v exceeds %d elements", shape, maxActivationElems)
		}
		n *= d
	}
	return n, nil
}

// f64Bytes serializes float64s to little-endian bytes.
func f64Bytes(src []float64) []byte {
	out := make([]byte, len(src)*8)
	for i, v := range src {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// bytesF64 decodes little-endian bytes into one float64 buffer.
func bytesF64(raw []byte) []float64 {
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out
}
