package serve

import "time"

// HealthState is the daemon's coarse serving condition, the state
// machine /healthz and /metrics report.
//
//	healthy  ──consecutiveFailures ≥ degradedAfter (3), the plan trails
//	│   ▲      the registry longer than staleAfter (10 s), or the
//	│   │      execution runtime sheds ≥ overloadAfter (10) requests
//	│   │      inside the trailing overloadWindow (5 s)──▶  degraded
//	│   └──successful, current re-solve and a drained shed window──┘
//	└──Drain/Close──▶  draining   (terminal: no un-drain)
type HealthState int

const (
	// Healthy: the published plan tracks the registry and solves
	// succeed.
	Healthy HealthState = iota
	// Degraded: the daemon is live and serving off its last-good epoch,
	// but re-solves keep failing or the plan is stale. Offloads still
	// work; operators should look at last_solve_error.
	Degraded
	// Draining: Drain/Close was called. New registrations get 503;
	// offloads keep serving through the drain window.
	Draining
)

func (h HealthState) String() string {
	switch h {
	case Degraded:
		return "degraded"
	case Draining:
		return "draining"
	}
	return "healthy"
}

// Health is one computed snapshot of the daemon's serving condition.
type Health struct {
	// State is the aggregate verdict.
	State HealthState
	// Epoch and generation identify the published plan (zero before the
	// first solve) and the registry state it was solved from.
	Epoch      uint64
	generation uint64
	// tier names the solver tier that produced the published plan
	// ("heuristic", "optimal", "approx"); empty before the first
	// non-empty epoch.
	tier string
	// current reports whether the plan covers the latest registry
	// generation.
	current bool
	// generationLag is how many registry mutations the plan is behind.
	generationLag uint64
	// epochAge is how long ago the plan was published; for a daemon
	// that has never published, how long it has been up.
	epochAge time.Duration
	// staleFor is how long the plan has trailed the registry, zero
	// while current.
	staleFor time.Duration
	// consecutiveFailures is the current run of failed re-solves.
	consecutiveFailures uint64
	// overloaded reports sustained deadline pressure in the execution
	// runtime: recentSheds ≥ overloadAfter inside the trailing
	// overloadWindow. Degrades the aggregate state while it lasts; the
	// server returns to healthy once the shed window drains.
	overloaded bool
	// recentSheds is the backend shed count inside the overload window.
	recentSheds int
	// lastError is the most recent solve failure, empty after a
	// success.
	lastError string
}

// Health computes the current health snapshot. Degradation is driven by
// the two signals that matter to a plan consumer: the resolver keeps
// failing (consecutiveFailures ≥ degradedAfter), or the published plan
// has trailed the registry for longer than staleAfter — generation lag
// alone is normal churn inside the debounce window, so only sustained
// lag degrades.
func (s *Server) Health() Health {
	now := s.cfg.now()
	ep := s.resolver.Current()
	gen := s.reg.Generation()
	h := Health{
		generation:          gen,
		consecutiveFailures: s.resolver.ConsecutiveFailures(),
		lastError:           s.stats.lastSolveError(),
	}
	var epGen uint64
	published := s.stats.start
	if ep != nil {
		h.Epoch = ep.N
		epGen = ep.generation
		published = ep.publishedAt
		if ep.Deployment != nil {
			h.tier = ep.Tier.String()
		}
	}
	h.current = ep != nil && epGen == gen
	if gen > epGen {
		h.generationLag = gen - epGen
	}
	h.epochAge = now.Sub(published)
	if since, ok := s.resolver.StaleSince(); ok {
		h.staleFor = now.Sub(since)
	}
	h.recentSheds = s.stats.recentSheds(overloadWindow, now)
	h.overloaded = h.recentSheds >= overloadAfter
	switch {
	case s.draining.Load():
		h.State = Draining
	case h.consecutiveFailures >= degradedAfter:
		h.State = Degraded
	case h.staleFor > staleAfter:
		h.State = Degraded
	case h.overloaded:
		h.State = Degraded
	default:
		h.State = Healthy
	}
	return h
}
