// Package repro is a from-scratch Go reproduction of "Shift Happens:
// Mixture of Experts based Continual Adaptation in Federated Learning"
// (MIDDLEWARE 2025): the ShiftEx shift-aware mixture-of-experts middleware
// for streaming federated learning, together with every substrate it needs
// — a neural-network training stack, kernel two-sample statistics, k-means
// clustering, facility-location assignment, a windowed stream engine, a
// federated round engine with in-process and TCP transports, FLIPS
// participant selection, the four baseline techniques the paper compares
// against, and the full experiment harness that regenerates the paper's
// tables and figures.
//
// The adaptation logic itself is policy-driven: internal/adapt decomposes
// Algorithm 2 into typed pipeline stages (shift detection, calibration,
// expert assignment, training planning, consolidation) bundled into named,
// registered policies, and a technique registry through which shiftex and
// every baseline are constructed — one code path for construction, flag
// parsing, and error listings across the CLIs and the experiment grid. New
// detectors, solvers, or lifecycle rules compose into new policies without
// touching the aggregator, and the grid sweeps them side by side
// (shiftex-bench -policy).
//
// Beyond the reproduction, internal/service makes the middleware claim
// literal: a long-running ShiftEx runtime that drives the same aggregator
// over pluggable in-process or TCP transports with bounded-parallel
// fan-out, per-call timeouts, retries, and a round quorum; versioned
// checkpoint/restore of the full aggregator state; and an HTTP
// observability endpoint. cmd/shiftex-aggregator and cmd/shiftex-party are
// its daemons; for the same seed the cross-process deployment makes
// bit-identical decisions to the in-process run.
//
// internal/serve closes the loop with the request path: cmd/shiftex-serve
// loads an aggregator checkpoint into an immutable, atomically hot-swappable
// snapshot and serves predictions over HTTP, routing each request to the
// expert whose latent memory matches the request's embedding signature
// (with the global model as fallback) through a micro-batching pool of
// zero-allocation workspaces.
//
// internal/gateway scales that to a fleet: cmd/shiftex-gateway fronts many
// named models, each served by multiple shiftex-serve replicas, routing
// requests with consistent-hash affinity, health-probed failover, and a
// middleware chain (auth, per-tenant rate limiting, admission control,
// logging) selected by name from config per route group. Every daemon
// speaks the same versioned /v1 HTTP surface defined in internal/httpapi
// — one predict/state/metrics schema across aggregator, serve, and
// gateway, with deprecated unversioned aliases.
//
// internal/monitor watches that serving traffic drift: the batched routing
// path tees each routed embedding off-path into bounded sketches scored
// against the snapshot's training-time latent memories (self-calibrated
// MMD), surfaced as /v1/debug/drift, shiftex_monitor_* metrics, and a
// gateway fleet view (max/mean drift across replicas, snapshot version
// skew). The committed BENCH_drift.json pins the plane's contract: an
// injected covariate shift is detected with zero pre-shift false positives
// at under 3% throughput overhead.
//
// internal/continual acts on that signal — the paper's loop, closed live:
// a controller goroutine subscribes to the monitor's evaluations and, on a
// hysteresis-confirmed threshold crossing, harvests the live embedding
// sketches, runs the real adapt.Policy pipeline in-process (detect,
// calibrate, assign, train, consolidate), validates the candidate snapshot
// against held-back traffic, and hot-swaps it through the serving tier's
// atomic-pointer path — production-guarded by cooldown, trigger
// coalescing, validation-gated promotion, and rollback on any failure,
// with the monitor re-baselined against each new snapshot. New experts
// carry a live-calibrated per-expert acceptance radius so single-request
// traffic actually routes to them. The committed BENCH_adapt-live.json
// pins the closed-loop contract: an injected shift is detected, adapted,
// and swapped with zero dropped requests, and the shifted regime's routing
// strictly improves over the frozen baseline.
//
// internal/loadgen measures all of it from the outside, and only
// cmd/shiftex-bench links it: one load driver (claim counter, pacing,
// deadline, inline at-fraction triggers) over two targets — an in-process
// server, a gateway URL — one paired best-of-N trial protocol, and the
// serving, gateway, tracing, drift and adapt-live benchmarks that write the
// committed BENCH_*.json artifacts (shiftex-bench serve-load, trace, drift,
// adapt-live, gateway-load; shiftex-bench check gates any of them). The
// daemons carry configuration flags only.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record, the cross-process parity contract, and the
// checkpoint schema. The benchmarks in bench_test.go regenerate each
// table and figure at reduced scale; cmd/shiftex-bench produces them at any
// scale.
package repro
