package service

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// FanoutConfig bounds how a caller reaches a set of remote members — the
// aggregator fleet reaching parties, or the serving gateway reaching its
// replica fleet. The zero value selects the defaults.
type FanoutConfig struct {
	// Workers bounds concurrent member calls per fan-out; 0 means 4.
	Workers int
	// Timeout bounds one member call (including retrial-free transport
	// time); 0 disables the caller-side timeout and relies on transport
	// deadlines.
	Timeout time.Duration
	// Retries is the number of extra attempts after a failed call.
	Retries int
	// Quorum is the fraction of addressed members that must answer for the
	// operation to complete; 0 means 1.0 (all). Operations below quorum
	// fail; members that drop are skipped, not retried forever —
	// straggler tolerance, not exactly-once delivery.
	Quorum float64
}

func (c FanoutConfig) workers() int {
	if c.Workers <= 0 {
		return 4
	}
	return c.Workers
}

// QuorumNeed returns how many of n addressed members must succeed. The
// epsilon absorbs float error in q*n (0.28*25 is 7.0000000000000009 in
// float64; exactly meeting the requested fraction must pass).
func (c FanoutConfig) QuorumNeed(n int) int {
	q := c.Quorum
	if q <= 0 || q > 1 {
		q = 1
	}
	need := int(math.Ceil(q*float64(n) - 1e-9))
	if need < 1 {
		need = 1
	}
	if need > n {
		need = n
	}
	return need
}

// ErrCallTimeout marks a caller-side timeout: the abandoned call is still
// running on the member until the transport deadline fires.
var ErrCallTimeout = errors.New("service: call timed out")

// CallTimeout runs fn under the given per-call timeout. A timed-out call
// keeps running in its goroutine until the transport deadline fires; its
// result is discarded.
func CallTimeout[T any](d time.Duration, fn func() (T, error)) (T, error) {
	if d <= 0 {
		return fn()
	}
	type res struct {
		v   T
		err error
	}
	ch := make(chan res, 1)
	go func() {
		v, err := fn()
		ch <- res{v, err}
	}()
	// A stopped timer is collectable at once; time.After's would stay
	// reachable from the runtime until d elapsed (go.mod pins pre-1.23
	// timer semantics), one per call.
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-timer.C:
		var zero T
		return zero, fmt.Errorf("%w after %s", ErrCallTimeout, d)
	}
}

// Attempt runs fn with the config's timeout and retry policy. Timeouts are
// not retried: the abandoned call is still running on the member, so a
// retry would stack duplicate work on the member that is already too slow.
func Attempt[T any](fan FanoutConfig, fn func() (T, error)) (T, error) {
	var v T
	var err error
	for i := 0; i <= fan.Retries; i++ {
		v, err = CallTimeout(fan.Timeout, fn)
		if err == nil {
			return v, nil
		}
		if errors.Is(err, ErrCallTimeout) {
			return v, err
		}
	}
	return v, err
}

// FanOut runs fn for every member on a bounded worker pool under the given
// timeout/retry policy and returns results in input order. Failed slots
// carry their error, prefixed "op describe(member)". onFailure, when
// non-nil, is invoked once per member whose attempts were exhausted — the
// metrics hook.
func FanOut[K any, T any](fan FanoutConfig, members []K, op string, describe func(K) string, onFailure func(), fn func(member K) (T, error)) ([]T, []error) {
	results := make([]T, len(members))
	errs := make([]error, len(members))
	sem := make(chan struct{}, fan.workers())
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(slot int, member K) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			v, err := Attempt(fan, func() (T, error) { return fn(member) })
			if err != nil {
				errs[slot] = fmt.Errorf("%s %s: %w", op, describe(member), err)
				if onFailure != nil {
					onFailure()
				}
				return
			}
			results[slot] = v
		}(i, m)
	}
	wg.Wait()
	return results, errs
}
