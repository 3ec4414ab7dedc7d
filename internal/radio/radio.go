// Package radio models the vRAN side of OffloaDNN: resource blocks (RBs),
// the SNR-dependent per-RB capacity B(σ), and the slice accounting the
// controller performs when it allocates r_τ RBs to each admitted task.
// The minimal-slice rule that sizes r_τ is core.MinSlices.
//
// Two capacity models are provided. FixedRate reproduces the paper's
// evaluation setting (B(σ) = 0.35 Mb/s per RB regardless of σ, Table IV);
// CQITable maps SNR through the LTE 4-bit CQI table to spectral
// efficiency, for scenarios that want channel diversity.
package radio

import (
	"errors"
	"fmt"
)

// errCapacity reports an allocation that exceeds the RB pool.
var errCapacity = errors.New("radio: insufficient resource blocks")

// CapacityModel maps a link SNR to the number of bits one RB carries per
// second.
type CapacityModel interface {
	// BitsPerRBPerSecond returns B(σ) in bit/s for the given average SNR.
	BitsPerRBPerSecond(snrDB float64) float64
}

// FixedRate is the paper's Table-IV setting: every RB carries the same
// rate regardless of channel quality.
type FixedRate struct {
	// Rate in bit/s per RB (paper: 0.35 Mb/s).
	Rate float64
}

// BitsPerRBPerSecond implements CapacityModel.
func (f FixedRate) BitsPerRBPerSecond(float64) float64 { return f.Rate }

// PaperRate returns the Table-IV fixed-rate model (0.35 Mb/s per RB).
func PaperRate() FixedRate { return FixedRate{Rate: 0.35e6} }

// CQITable is the LTE 4-bit CQI mapping: SNR thresholds to spectral
// efficiency (bits per resource element), per 3GPP TS 36.213 Table
// 7.2.3-1 with commonly used SNR switching points.
type CQITable struct {
	// Overhead is the fraction of resource elements lost to control and
	// reference signals (defaults to 0.25 when zero-valued via NewCQITable).
	Overhead float64
}

// NewCQITable returns the standard table with 25% control overhead.
func NewCQITable() CQITable { return CQITable{Overhead: 0.25} }

var cqiSNR = []float64{-6.7, -4.7, -2.3, 0.2, 2.4, 4.3, 5.9, 8.1, 10.3, 11.7, 14.1, 16.3, 18.7, 21.0, 22.7}

var cqiEff = []float64{0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766, 1.9141, 2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547}

// CQI returns the channel quality indicator (0 when below the first
// threshold, else 1–15).
func (c CQITable) CQI(snrDB float64) int {
	idx := 0
	for i, th := range cqiSNR {
		if snrDB >= th {
			idx = i + 1
		}
	}
	return idx
}

// SpectralEfficiency returns bits per resource element for the SNR.
func (c CQITable) SpectralEfficiency(snrDB float64) float64 {
	q := c.CQI(snrDB)
	if q == 0 {
		return 0
	}
	return cqiEff[q-1]
}

// BitsPerRBPerSecond implements CapacityModel. One LTE RB spans 12
// subcarriers × 14 OFDM symbols per 1 ms subframe.
func (c CQITable) BitsPerRBPerSecond(snrDB float64) float64 {
	const resPerRBPerMs = 12 * 14
	eff := c.SpectralEfficiency(snrDB)
	return eff * resPerRBPerMs * 1000 * (1 - c.Overhead)
}

// sliceGrant is one task's slice: rbs resource blocks scheduled for a
// fraction share of the time.
type sliceGrant struct {
	rbs   int
	share float64
}

// SliceAllocator tracks RB assignments of the radio network slices the
// controller creates per task. Slices may be time-multiplexed: a slice of
// r RBs active a fraction z of the time charges z·r against the pool,
// matching the DOT constraint (1d) Σ z·r ≤ R. It is not safe for
// concurrent use; the controller serializes allocations.
type SliceAllocator struct {
	total  int
	grants map[string]sliceGrant
	// used is the time-averaged RB usage Σ r·share over grants, kept as a
	// running total so a grant costs O(1) whatever the pool holds.
	used float64
}

// NewSliceAllocator creates an allocator over `total` RBs.
func NewSliceAllocator(total int) *SliceAllocator {
	return &SliceAllocator{total: total, grants: make(map[string]sliceGrant)}
}

// Total returns the RB pool size.
func (s *SliceAllocator) Total() int { return s.total }

// Used returns the time-averaged RB usage, rounded to the nearest block.
func (s *SliceAllocator) Used() int { return int(s.used + 0.5) }

// UsedFraction returns the pool utilization Σ r·share / R.
func (s *SliceAllocator) UsedFraction() float64 {
	if s.total == 0 {
		return 0
	}
	return s.used / float64(s.total)
}

// Available returns the whole RBs still unallocated (time-averaged).
func (s *SliceAllocator) Available() int {
	a := float64(s.total) - s.used
	if a < 0 {
		return 0
	}
	return int(a + 1e-9)
}

// Allocation returns the RBs held by a task slice (0 when absent).
func (s *SliceAllocator) Allocation(task string) int { return s.grants[task].rbs }

// Share returns the task slice's scheduled time fraction (0 when absent).
func (s *SliceAllocator) Share(task string) float64 { return s.grants[task].share }

// Allocate reserves a full-time slice of rbs RBs for the task, replacing
// any previous grant.
func (s *SliceAllocator) Allocate(task string, rbs int) error {
	return s.AllocateShared(task, rbs, 1)
}

// AllocateShared reserves a slice of rbs RBs scheduled a fraction share
// of the time (the z of the task's admission), charging rbs·share against
// the pool. A zero-RB or zero-share grant removes the slice.
func (s *SliceAllocator) AllocateShared(task string, rbs int, share float64) error {
	if rbs < 0 {
		return fmt.Errorf("radio: negative allocation %d for %s", rbs, task)
	}
	if share < 0 || share > 1 {
		return fmt.Errorf("radio: share %v for %s outside [0,1]", share, task)
	}
	prev := s.grants[task]
	without := s.used - float64(prev.rbs)*prev.share
	newUsed := without + float64(rbs)*share
	if newUsed > float64(s.total)+1e-9 {
		return fmt.Errorf("%w: want %.2f RBs (%d×%.2f) for %s, %.2f available",
			errCapacity, float64(rbs)*share, rbs, share, task,
			float64(s.total)-without)
	}
	if rbs == 0 || share == 0 {
		s.Release(task)
		return nil
	}
	s.used = newUsed
	s.grants[task] = sliceGrant{rbs: rbs, share: share}
	return nil
}

// Release frees the task's slice. An emptied pool reads exactly zero:
// the running total's rounding residue does not outlive the grants.
func (s *SliceAllocator) Release(task string) {
	prev := s.grants[task]
	s.used -= float64(prev.rbs) * prev.share
	delete(s.grants, task)
	if len(s.grants) == 0 {
		s.used = 0
	}
}
