package server

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
)

// This file is the admission-control layer: every request the server
// refuses for capacity reasons — rather than because it is malformed —
// flows through here, and every refusal carries a machine-readable
// reason plus a Retry-After so well-behaved clients back off instead of
// hot-looping.

// Machine-readable rejection reasons. Clients branch on these, not on
// the human-oriented error text.
const (
	// ReasonQueueFull: the job backlog is at capacity (503). Retry after
	// the queue drains.
	ReasonQueueFull = "queue_full"
	// ReasonBudgetExceeded: the submission's estimated train_epochs
	// exceeds the server's -max-train-epochs budget (429). The estimate
	// is echoed so the client can shrink the grid, drop replicas, or
	// wait for the ledger to warm.
	ReasonBudgetExceeded = "budget_exceeded"
	// ReasonRateLimited: this client exhausted its token bucket (429).
	ReasonRateLimited = "rate_limited"
	// ReasonDraining: the server is shutting down (503).
	ReasonDraining = "draining"
)

// budgetRetryAfterSeconds is the Retry-After hint on budget rejections.
// A budget reject is not transient in the rate-limit sense — the client
// must either shrink the request or wait for concurrent work to warm
// the ledger — so the hint is a polite coarse backoff, not a promise.
const budgetRetryAfterSeconds = 30

// admitBudget applies the -max-train-epochs admission price to an
// estimate. It returns true when the submission is admitted; otherwise
// it has already written the 429 (estimate echoed, Retry-After set) and
// counted the rejection.
func (s *Server) admitBudget(w http.ResponseWriter, est experiments.Estimate) bool {
	if s.maxTrainEpochs <= 0 || est.TrainEpochs <= s.maxTrainEpochs {
		return true
	}
	s.rejectedBudget.Add(1)
	writeError(w, http.StatusTooManyRequests, errorResponse{
		Error: fmt.Sprintf(
			"estimated cost %d train_epochs (%d of %d replicas uncached) exceeds the admission budget of %d train_epochs; shrink the grid or replica count, or resubmit once the ledger is warmer",
			est.TrainEpochs, est.TrainReplicas, est.TrainingRuns, s.maxTrainEpochs),
		Reason:            ReasonBudgetExceeded,
		RetryAfterSeconds: budgetRetryAfterSeconds,
		Estimate:          &est,
		MaxTrainEpochs:    s.maxTrainEpochs,
	})
	return false
}

// rateLimiter is a per-client token-bucket limiter keyed by remote
// host. Buckets refill at rate tokens/second up to burst; a request
// costs one token. Idle buckets are swept lazily so the map stays
// bounded under address churn.
type rateLimiter struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	clients map[string]*bucket
	sweepAt time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

// rateLimiterSweepEvery bounds how often the client map is scanned for
// idle buckets; rateLimiterIdle is how long a client must be silent
// before its bucket (by then full anyway) is dropped.
const (
	rateLimiterSweepEvery = time.Minute
	rateLimiterIdle       = 10 * time.Minute
)

func newRateLimiter(rate float64, burst int) *rateLimiter {
	b := float64(burst)
	if b <= 0 {
		// Default burst: two seconds of refill, at least one request —
		// enough to absorb a client's natural request pairs (submit then
		// poll) without admitting a flood.
		b = math.Max(1, 2*rate)
	}
	return &rateLimiter{rate: rate, burst: b, clients: map[string]*bucket{}}
}

// allow spends one token for the client, reporting whether the request
// is admitted and, when it is not, how long until a token accrues.
func (l *rateLimiter) allow(client string, now time.Time) (ok bool, retryAfter time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, found := l.clients[client]
	if !found {
		b = &bucket{tokens: l.burst, last: now}
		l.clients[client] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(l.burst, b.tokens+float64(dt*l.rate))
	}
	b.last = now
	l.sweepLocked(now)
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	return false, wait
}

// sweepLocked drops buckets idle long enough to have refilled
// completely — forgetting them is behaviorally invisible.
func (l *rateLimiter) sweepLocked(now time.Time) {
	if now.Sub(l.sweepAt) < rateLimiterSweepEvery {
		return
	}
	l.sweepAt = now
	for client, b := range l.clients {
		if now.Sub(b.last) > rateLimiterIdle {
			delete(l.clients, client)
		}
	}
}

// clientKey reduces a request to its rate-limit identity: the remote
// host without the ephemeral port, so one client is one bucket no
// matter how many connections it opens.
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// rateLimitExempt marks the paths that must answer even for a client
// being shed: liveness and readiness probes are how operators and load
// balancers see the shedding.
func rateLimitExempt(path string) bool {
	return path == "/v1/healthz" || path == "/v1/readyz"
}

// limit wraps next with the per-client token bucket. With no limiter
// configured (serve without -rate) next is returned untouched.
func (s *Server) limit(next http.Handler) http.Handler {
	if s.limiter == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rateLimitExempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		if ok, wait := s.limiter.allow(clientKey(r), time.Now()); !ok {
			s.shedRate.Add(1)
			secs := int(math.Ceil(wait.Seconds()))
			if secs < 1 {
				secs = 1
			}
			writeError(w, http.StatusTooManyRequests, errorResponse{
				Error: fmt.Sprintf("rate limit exceeded (%.3g requests/s per client); retry in %ds",
					s.limiter.rate, secs),
				Reason:            ReasonRateLimited,
				RetryAfterSeconds: secs,
			})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// routeLabel collapses a request onto its mux pattern for telemetry:
// path parameters are folded back into their placeholders so metric
// cardinality is the route table's size, never the ID space's. Unknown
// paths collapse onto "other".
func routeLabel(r *http.Request) string {
	route := "other"
	p := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/"), "/")
	segs := strings.Split(p, "/")
	switch segs[0] {
	case "experiments":
		switch {
		case len(segs) == 1:
			route = "/v1/experiments"
		case len(segs) == 3 && segs[2] == "run":
			route = "/v1/experiments/{id}/run"
		}
	case "jobs":
		switch len(segs) {
		case 1:
			route = "/v1/jobs"
		case 2:
			route = "/v1/jobs/{id}"
		}
	case "results":
		if len(segs) == 2 {
			route = "/v1/results/{key}"
		}
	case "work":
		switch {
		case len(segs) == 2 && segs[1] == "lease":
			route = "/v1/work/lease"
		case len(segs) == 3 && (segs[2] == "heartbeat" || segs[2] == "complete"):
			route = "/v1/work/{id}/" + segs[2]
		}
	case "devices", "workloads", "grid", "healthz", "readyz", "stats", "metrics":
		if len(segs) == 1 {
			route = "/v1/" + segs[0]
		}
	}
	return r.Method + " " + route
}
