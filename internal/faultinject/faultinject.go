// Package faultinject provides named failure points for chaos-testing
// the serving stack. A failure point is a string naming a site and a
// failure mode ("solver.error", "solver.panic", "solver.hang",
// "deploy.error"); production code calls Hit at each site through a
// possibly-nil *Injector, so the disarmed path costs a nil check and
// nothing else. Tests and the `edgeserve -fault` flag arm points with
// count- and probability-based triggers.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Failure points wired into the serving stack. The suffix encodes the
// failure mode (see modeOf); the prefix names the site.
const (
	// PointSolverError makes the resolver's solve step return an error
	// (a counted solve failure; the last-good epoch keeps serving).
	PointSolverError = "solver.error"
	// PointSolverPanic panics inside the resolver's solve step,
	// exercising the panic-isolation path.
	PointSolverPanic = "solver.panic"
	// PointSolverHang stalls the solve step until the rule's HangFor
	// elapses or the solve context is done (serve.DefaultSolveTimeout or
	// shutdown), exercising the deadline path.
	PointSolverHang = "solver.hang"
	// PointDeployError fails the controller's deploy step after a
	// successful solve.
	PointDeployError = "deploy.error"
	// PointExecSlow stalls the execution backend's batch executor for the
	// rule's HangFor before each fired forward pass (then proceeds),
	// modeling a slow accelerator — the deterministic way to provoke
	// deadline misses in the deadline-aware runtime.
	PointExecSlow = "exec.slow"
	// PointExecHang blocks the batch executor until the rule's HangFor
	// elapses or the backend closes, modeling a wedged forward pass.
	PointExecHang = "exec.hang"
)

// ErrInjected is the sentinel wrapped by every error-mode fire.
var ErrInjected = errors.New("faultinject: injected fault")

// mode is what firing a point does to the caller.
type mode int

const (
	// modeError returns a wrapped ErrInjected.
	modeError mode = iota
	// modePanic panics with the point name.
	modePanic
	// modeHang blocks until HangFor elapses (then returns nil, modeling
	// a slow call) or the context is done (returning ctx.Err()).
	modeHang
	// modeSlow sleeps HangFor unconditionally and returns nil — a slow
	// call that always completes. Unlike modeHang it ignores the context:
	// the stall is the point, and it is bounded by the rule itself.
	modeSlow
)

// modeOf derives a point's failure mode from its name suffix: ".panic"
// panics, ".hang" stalls until ctx/HangFor, ".slow" sleeps HangFor,
// anything else returns an error.
func modeOf(point string) mode {
	switch {
	case strings.HasSuffix(point, ".panic"):
		return modePanic
	case strings.HasSuffix(point, ".hang"):
		return modeHang
	case strings.HasSuffix(point, ".slow"):
		return modeSlow
	}
	return modeError
}

// Rule says when an armed point fires. The count and probability
// triggers compose: a hit fires when either matches, until Count total
// fires have happened.
type Rule struct {
	// EveryN fires on every Nth hit of the point (1 = every hit).
	// Zero disables the count trigger.
	EveryN int
	// P fires with independent probability P on each hit.
	P float64
	// Count caps the total number of fires; zero means unlimited.
	Count int
	// HangFor bounds a hang point's stall; zero hangs until the site's
	// context is done. Ignored by error and panic points.
	HangFor time.Duration
}

type pointState struct {
	rule  Rule
	hits  uint64
	fires uint64
}

// Injector holds the armed failure points. The zero of *Injector (nil)
// is a valid, permanently disarmed injector: every Hit on it returns
// nil, which is how production code wires points without a build tag.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	points map[string]*pointState
}

// New creates an injector whose probability draws use the given seed,
// so chaos runs are reproducible.
func New(seed int64) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		points: make(map[string]*pointState),
	}
}

// Set arms (or re-arms, resetting counters) a point with a rule.
func (i *Injector) Set(point string, r Rule) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.points[point] = &pointState{rule: r}
}

// Clear disarms a point. Its hit/fire counts are discarded.
func (i *Injector) Clear(point string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	delete(i.points, point)
}

// Hits returns how many times the point was evaluated.
func (i *Injector) Hits(point string) uint64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if st, ok := i.points[point]; ok {
		return st.hits
	}
	return 0
}

// Fires returns how many times the point actually fired.
func (i *Injector) Fires(point string) uint64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if st, ok := i.points[point]; ok {
		return st.fires
	}
	return 0
}

// Hit evaluates a failure point and enacts its verdict. A nil injector,
// unarmed point, or non-firing hit returns nil. Error points return a
// wrapped ErrInjected; panic points panic; hang points block per their
// rule. ctx bounds hangs only — pass the context governing the site's
// work (a hang with a Background context and no HangFor blocks until
// process exit, which is exactly the failure being modeled).
func (i *Injector) Hit(ctx context.Context, point string) error {
	if i == nil {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	i.mu.Lock()
	st, ok := i.points[point]
	if !ok {
		i.mu.Unlock()
		return nil
	}
	st.hits++
	fire := false
	if st.rule.Count == 0 || st.fires < uint64(st.rule.Count) {
		if st.rule.EveryN > 0 && st.hits%uint64(st.rule.EveryN) == 0 {
			fire = true
		}
		if !fire && st.rule.P > 0 && i.rng.Float64() < st.rule.P {
			fire = true
		}
	}
	if fire {
		st.fires++
	}
	hangFor := st.rule.HangFor
	i.mu.Unlock()
	if !fire {
		return nil
	}
	switch modeOf(point) {
	case modePanic:
		panic(fmt.Sprintf("faultinject: %s fired", point))
	case modeSlow:
		if hangFor > 0 {
			time.Sleep(hangFor)
		}
		return nil
	case modeHang:
		if hangFor <= 0 {
			<-ctx.Done()
			return ctx.Err()
		}
		t := time.NewTimer(hangFor)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	default:
		return fmt.Errorf("%w: %s", ErrInjected, point)
	}
}

// ParseSpec parses one `-fault` flag value of the form
//
//	point[:key=value[,key=value...]]
//
// with keys every (int), p (float), count (int) and for (duration):
// "solver.error:p=0.3", "solver.panic:every=5,count=2",
// "solver.hang:every=3,for=2s". A bare point means every=1.
func ParseSpec(spec string) (string, Rule, error) {
	point, opts, hasOpts := strings.Cut(spec, ":")
	point = strings.TrimSpace(point)
	if point == "" {
		return "", Rule{}, fmt.Errorf("faultinject: empty point in spec %q", spec)
	}
	r := Rule{}
	if !hasOpts || strings.TrimSpace(opts) == "" {
		r.EveryN = 1
		return point, r, nil
	}
	for _, kv := range strings.Split(opts, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return "", Rule{}, fmt.Errorf("faultinject: option %q in spec %q is not key=value", kv, spec)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "every":
			r.EveryN, err = strconv.Atoi(val)
		case "count":
			r.Count, err = strconv.Atoi(val)
		case "p":
			r.P, err = strconv.ParseFloat(val, 64)
			if err == nil && (r.P < 0 || r.P > 1) {
				err = fmt.Errorf("probability %v outside [0,1]", r.P)
			}
		case "for":
			r.HangFor, err = time.ParseDuration(val)
		default:
			return "", Rule{}, fmt.Errorf("faultinject: unknown option %q in spec %q (want every|p|count|for)", key, spec)
		}
		if err != nil {
			return "", Rule{}, fmt.Errorf("faultinject: option %q in spec %q: %v", key, spec, err)
		}
	}
	if r.EveryN <= 0 && r.P <= 0 {
		return "", Rule{}, fmt.Errorf("faultinject: spec %q arms no trigger (set every or p)", spec)
	}
	return point, r, nil
}
