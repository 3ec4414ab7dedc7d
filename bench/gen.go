package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
)

// Everything a workload derives from -seed is generated here, before the
// program under test starts, and nowhere else: the program sees only
// these values. The same seed yields byte-identical inputs; digest() is
// the SHA-256 every run echoes so two runs can be shown to have been fed
// the same schedule.

const (
	// framesPerTask distinct frames per task keep the JSON decoder and
	// the batch tensors off a single hot input.
	framesPerTask = 16
	// frameC/H/W is the data-plane input shape (see dataModel).
	frameC, frameH, frameW = 3, 16, 16
	// pickLen is the length of the cyclic frame-choice sequence.
	pickLen = 4096
)

// churnKind is one registry mutation of the epoch-churn workload.
type churnKind uint8

const (
	churnDeregister churnKind = iota
	churnRegister
	churnRate
)

// churnEvent mutates one task of the registered scenario. Factor is the
// new rate as a multiple of the task's scenario rate (churnRate only).
type churnEvent struct {
	Kind   churnKind
	Task   int
	Factor float64
}

// inputs is one workload's seeded input set.
type inputs struct {
	// Frames[t][k] is frame k of task t, flattened C·H·W, 8-bit pixels
	// centred on zero (k/256 − 0.5, short exact decimals in JSON).
	Frames [][][]float64
	// Phases[t] ∈ [0,1) is task t's arrival phase as a fraction of its
	// period (open loops).
	Phases []float64
	// Wobble is the cyclic sequence of per-frame arrival offsets in [0,1)
	// (see periodicArrivals), indexed like Picks.
	Wobble []float64
	// Picks is the cyclic frame-choice sequence; request n of stream s
	// sends frame Picks[(n+s·257) mod pickLen].
	Picks []uint8
	// Churn is the epoch-churn event list.
	Churn []churnEvent
	// Jitter[t] ∈ [0.9,1.1) scales task t's λ on the scale instances.
	Jitter []float64
}

func genFrames(rng *rand.Rand, tasks int) [][][]float64 {
	out := make([][][]float64, tasks)
	for t := range out {
		out[t] = make([][]float64, framesPerTask)
		for k := range out[t] {
			px := make([]float64, frameC*frameH*frameW)
			for i := range px {
				px[i] = float64(rng.Intn(256))/256 - 0.5
			}
			out[t][k] = px
		}
	}
	return out
}

func genUnit(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

func genPicks(rng *rand.Rand) []uint8 {
	out := make([]uint8, pickLen)
	for i := range out {
		out[i] = uint8(rng.Intn(framesPerTask))
	}
	return out
}

// genChurn draws n events over `tasks` registered tasks: a registered
// task is deregistered one time in three (never below minLive live
// tasks) and otherwise has its rate redrawn at U[0.5,1.5)× its scenario
// rate; a deregistered task comes back at its scenario rate.
func genChurn(rng *rand.Rand, tasks, n, minLive int) []churnEvent {
	live := make([]bool, tasks)
	for i := range live {
		live[i] = true
	}
	nLive := tasks
	out := make([]churnEvent, 0, n)
	for len(out) < n {
		t := rng.Intn(tasks)
		switch {
		case !live[t]:
			live[t] = true
			nLive++
			out = append(out, churnEvent{Kind: churnRegister, Task: t, Factor: 1})
		case rng.Intn(3) == 0 && nLive > minLive:
			live[t] = false
			nLive--
			out = append(out, churnEvent{Kind: churnDeregister, Task: t})
		default:
			out = append(out, churnEvent{Kind: churnRate, Task: t, Factor: 0.5 + rng.Float64()})
		}
	}
	return out
}

func genJitter(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.9 + 0.2*rng.Float64()
	}
	return out
}

// pick returns the frame index request n of stream s sends.
func (in *inputs) pick(s, n int) int {
	return int(in.Picks[(n+s*257)%pickLen])
}

// digest is the SHA-256 of the inputs in a fixed serialisation.
func (in *inputs) digest() string {
	h := sha256.New()
	putU64(h, uint64(len(in.Frames)))
	for _, task := range in.Frames {
		for _, f := range task {
			putFloats(h, f)
		}
	}
	putFloats(h, in.Phases)
	putFloats(h, in.Wobble)
	putU64(h, uint64(len(in.Picks)))
	h.Write(in.Picks)
	putU64(h, uint64(len(in.Churn)))
	for _, e := range in.Churn {
		putU64(h, uint64(e.Kind))
		putU64(h, uint64(e.Task))
		putU64(h, math.Float64bits(e.Factor))
	}
	putFloats(h, in.Jitter)
	return hex.EncodeToString(h.Sum(nil))
}

func putU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func putFloats(h hash.Hash, fs []float64) {
	putU64(h, uint64(len(fs)))
	for _, f := range fs {
		putU64(h, math.Float64bits(f))
	}
}
