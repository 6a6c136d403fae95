package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/serve"
)

// answer is what a serving layer returned for one request.
type answer struct {
	class, expert, version int
}

// target sends request i of a stream to one layer of the stack and reports
// its answer; ok is false when the request errored or was refused.
type target func(i int) (a answer, ok bool)

// stream is a cyclic request stream with the oracle's answer per input.
type stream struct {
	reqs []request
	want []expected
}

// loadgen is the one closed-loop generator every serving rung and workload
// uses: clients goroutines share a request counter, each sends its next
// request the moment its previous one completes, and there is one clock read
// per request (a client's next request starts when its last one ended, so the
// few nanoseconds of claiming and checking count as client time).
type loadgen struct {
	clients int
	tr      *tracer // nil when untraced
	span    string  // root span name for traced requests
	reqBase int64   // span request id of the replay's first request
}

// replay sends requests [base, base+n) of s to tgt, checks every answer
// against the oracle and the label, and writes request base+k's latency to
// lat[k]. wantVersion < 0 skips the snapshot-version check.
func (g loadgen) replay(s stream, base, n int, lat []int64, wantVersion int, tgt target) tally {
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		total    tally
		distinct = len(s.reqs)
	)
	for c := 0; c < g.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local tally
			prev := time.Now()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					break
				}
				i := (base + k) % distinct
				a, ok := tgt(i)
				now := time.Now()
				lat[k] = int64(now.Sub(prev))
				g.tr.add(g.span, g.reqBase+int64(k), 0, prev, now)
				prev = now
				local.attempted++
				w := s.want[i]
				switch {
				case !ok || a.class != w.class || a.expert != w.expert || (wantVersion >= 0 && a.version != wantVersion):
					local.failed++
				case a.class == s.reqs[i].y:
					local.correct++
				}
			}
			mu.Lock()
			total.add(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}

// inProcess targets serve.Server.Predict directly.
func inProcess(srv *serve.Server, reqs []request) target {
	ctx := context.Background()
	return func(i int) (answer, bool) {
		res, err := srv.Predict(ctx, reqs[i].x)
		return answer{class: res.Class, expert: res.Expert, version: res.Version}, err == nil
	}
}

// httpClient is a keep-alive client that counts the connections it opens, so
// a run can show its connections were reused and churn is never silently part
// of a number.
type httpClient struct {
	http.Client
	dials atomic.Int64
}

func newHTTPClient(conns int) *httpClient {
	c := &httpClient{}
	d := &net.Dialer{Timeout: 5 * time.Second}
	c.Transport = &http.Transport{
		MaxIdleConnsPerHost: conns,
		// A response's connection returns to the idle pool a moment after
		// its body is read; without the cap a closed-loop client's next
		// request can find the pool empty and dial a third connection.
		MaxConnsPerHost: conns,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	c.Timeout = 10 * time.Second
	return c
}

func (c *httpClient) close() { c.Transport.(*http.Transport).CloseIdleConnections() }

// predictBodies marshals each request once, exactly as the gateway marshals
// it for its replica hop (same struct, same model name), so a handler
// decorator can recognise a request on either hop by its body bytes.
func predictBodies(reqs []request) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(httpapi.PredictRequest{X: r.x, Model: httpapi.DefaultModel})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// overHTTP targets POST /v1/predict at base (a replica or the gateway).
func overHTTP(c *httpClient, base, token string, bodies [][]byte) target {
	url := base + "/v1/predict"
	return func(i int) (answer, bool) {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(bodies[i]))
		if err != nil {
			return answer{}, false
		}
		req.Header.Set("Content-Type", "application/json")
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		res, err := c.Do(req)
		if err != nil {
			return answer{}, false
		}
		raw, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil || res.StatusCode != http.StatusOK {
			return answer{}, false // 503/429 and every other refusal count as failed
		}
		var pr httpapi.PredictResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			return answer{}, false
		}
		return answer{class: pr.Class, expert: pr.Expert, version: pr.Snapshot}, true
	}
}

// listen serves h on a loopback port until stop is called; stop waits for the
// server goroutine to exit.
func listen(h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}
