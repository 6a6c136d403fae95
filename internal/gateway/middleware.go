package gateway

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/httpapi"
)

// Middleware wraps an http.Handler. Chains run outermost-first in the
// order the config lists them: ["logging","auth"] logs every request,
// including the ones auth then rejects.
type Middleware func(http.Handler) http.Handler

// availableMiddlewares is the registry the config selects from, by name.
// Adding a middleware means adding one entry here; the constructor
// receives the gateway so middlewares share its config and counters.
// Unknown names fail startup with this table's listing (the same
// convention the adaptation-policy registry uses).
var availableMiddlewares = map[string]func(g *Gateway) Middleware{
	"auth":      authMiddleware,
	"ratelimit": rateLimitMiddleware,
	"admission": admissionMiddleware,
	"logging":   loggingMiddleware,
}

// AvailableMiddlewares returns the registered middleware names, sorted —
// the vocabulary config may select from.
func AvailableMiddlewares() []string {
	names := make([]string, 0, len(availableMiddlewares))
	for n := range availableMiddlewares {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildChain resolves names against the registry and composes them into
// one Middleware. An unknown name is a startup error naming the live set.
func buildChain(g *Gateway, names []string) (Middleware, error) {
	mws := make([]Middleware, 0, len(names))
	for _, name := range names {
		ctor, ok := availableMiddlewares[name]
		if !ok {
			return nil, fmt.Errorf("gateway: unknown middleware %q (available: %s)",
				name, strings.Join(AvailableMiddlewares(), ", "))
		}
		mws = append(mws, ctor(g))
	}
	return func(next http.Handler) http.Handler {
		h := next
		for i := len(mws) - 1; i >= 0; i-- {
			h = mws[i](h)
		}
		return h
	}, nil
}

// authMiddleware enforces a bearer token from Config.AuthTokens. No
// configured tokens means nothing is accepted: enabling "auth" without
// credentials must fail closed.
func authMiddleware(g *Gateway) Middleware {
	allowed := make(map[string]bool, len(g.cfg.AuthTokens))
	for _, t := range g.cfg.AuthTokens {
		allowed[t] = true
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tok, ok := bearerToken(r)
			if !ok || !allowed[tok] {
				g.metrics.rejected.Add(1)
				w.Header().Set("WWW-Authenticate", `Bearer realm="shiftex"`)
				httpapi.WriteError(w, http.StatusUnauthorized, "missing or invalid bearer token")
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

func bearerToken(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(h, prefix) {
		return "", false
	}
	return h[len(prefix):], true
}

// rateLimitMiddleware is a per-tenant token bucket. The tenant is the
// bearer token when present (one budget per credential), else the remote
// host — so one hot client cannot starve the rest of the fleet's budget.
func rateLimitMiddleware(g *Gateway) Middleware {
	lim := &rateLimiter{
		rate:    g.cfg.RatePerSecond,
		burst:   g.cfg.RateBurst,
		buckets: make(map[string]*tokenBucket),
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tenant, ok := bearerToken(r)
			if !ok {
				tenant = remoteHost(r)
			}
			if !lim.allow(tenant, time.Now()) {
				g.metrics.rejected.Add(1)
				w.Header().Set("Retry-After", "1")
				httpapi.WriteError(w, http.StatusTooManyRequests,
					fmt.Sprintf("rate limit exceeded for tenant (%.0f req/s)", g.cfg.RatePerSecond))
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

func remoteHost(r *http.Request) string {
	addr := r.RemoteAddr
	if i := strings.LastIndexByte(addr, ':'); i >= 0 {
		return addr[:i]
	}
	return addr
}

type rateLimiter struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	buckets map[string]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

func (l *rateLimiter) allow(tenant string, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[tenant]
	if !ok {
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	b.last = now
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// admissionMiddleware sheds load past Config.MaxInflight concurrently
// admitted requests with 503 + Retry-After, protecting the replica fleet
// from a thundering herd the per-replica pipelines would otherwise absorb
// as queueing latency.
func admissionMiddleware(g *Gateway) Middleware {
	slots := make(chan struct{}, g.cfg.MaxInflight)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case slots <- struct{}{}:
				defer func() { <-slots }()
				next.ServeHTTP(w, r)
			default:
				g.metrics.rejected.Add(1)
				w.Header().Set("Retry-After", "1")
				httpapi.WriteError(w, http.StatusServiceUnavailable,
					fmt.Sprintf("gateway at max inflight (%d)", g.cfg.MaxInflight))
			}
		})
	}
}

// loggingMiddleware counts and (when a logger is configured) logs each
// request with its final status.
func loggingMiddleware(g *Gateway) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if g.logger == nil {
				// Nothing to record a status or a duration for.
				next.ServeHTTP(w, r)
				g.metrics.logged.Add(1)
				return
			}
			rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
			start := time.Now()
			next.ServeHTTP(rec, r)
			g.metrics.logged.Add(1)
			g.logInfo(r.Context(), "request",
				"method", r.Method, "path", r.URL.Path, "status", rec.status,
				"durationUs", time.Since(start).Microseconds())
		})
	}
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}
