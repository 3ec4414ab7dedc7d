package serve

import "time"

// HealthState is the daemon's coarse serving condition, the state
// machine /healthz and /metrics report.
//
//	healthy  ──ConsecutiveFailures ≥ degradedAfter (3), the plan trails
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
	// work; operators should look at LastError.
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
	// Epoch and Generation identify the published plan (zero before the
	// first solve) and the registry state it was solved from.
	Epoch      uint64
	Generation uint64
	// Tier names the solver tier that produced the published plan
	// ("heuristic", "optimal", "approx"); empty before the first
	// non-empty epoch.
	Tier string
	// Current reports whether the plan covers the latest registry
	// generation.
	Current bool
	// GenerationLag is how many registry mutations the plan is behind.
	GenerationLag uint64
	// EpochAge is how long ago the plan was published; for a daemon
	// that has never published, how long it has been up.
	EpochAge time.Duration
	// StaleFor is how long the plan has trailed the registry, zero
	// while current.
	StaleFor time.Duration
	// ConsecutiveFailures is the current run of failed re-solves.
	ConsecutiveFailures uint64
	// Overloaded reports sustained deadline pressure in the execution
	// runtime: RecentSheds ≥ overloadAfter inside the trailing
	// overloadWindow. Degrades the aggregate state while it lasts; the
	// server returns to healthy once the shed window drains.
	Overloaded bool
	// RecentSheds is the backend shed count inside the overload window.
	RecentSheds int
	// LastError is the most recent solve failure, empty after a
	// success.
	LastError string
}

// Health computes the current health snapshot. Degradation is driven by
// the two signals that matter to a plan consumer: the resolver keeps
// failing (ConsecutiveFailures ≥ degradedAfter), or the published plan
// has trailed the registry for longer than staleAfter — generation lag
// alone is normal churn inside the debounce window, so only sustained
// lag degrades.
func (s *Server) Health() Health {
	now := s.cfg.Now()
	ep := s.resolver.Current()
	gen := s.reg.Generation()
	h := Health{
		Generation:          gen,
		ConsecutiveFailures: s.resolver.ConsecutiveFailures(),
		LastError:           s.stats.LastSolveError(),
	}
	var epGen uint64
	published := s.stats.start
	if ep != nil {
		h.Epoch = ep.N
		epGen = ep.Generation
		published = ep.PublishedAt
		if ep.Deployment != nil {
			h.Tier = ep.Tier.String()
		}
	}
	h.Current = ep != nil && epGen == gen
	if gen > epGen {
		h.GenerationLag = gen - epGen
	}
	h.EpochAge = now.Sub(published)
	if since, ok := s.resolver.StaleSince(); ok {
		h.StaleFor = now.Sub(since)
	}
	h.RecentSheds = s.stats.RecentSheds(overloadWindow, now)
	h.Overloaded = h.RecentSheds >= overloadAfter
	switch {
	case s.draining.Load():
		h.State = Draining
	case h.ConsecutiveFailures >= degradedAfter:
		h.State = Degraded
	case h.StaleFor > staleAfter:
		h.State = Degraded
	case h.Overloaded:
		h.State = Degraded
	default:
		h.State = Healthy
	}
	return h
}
