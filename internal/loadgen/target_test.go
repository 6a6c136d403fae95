package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// scripted serves /v1/predict from a per-attempt script (the last entry
// repeats) and counts the attempts.
func scripted(t *testing.T, script ...http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/predict" || r.Method != http.MethodPost {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		n := int(attempts.Add(1)) - 1
		script[min(n, len(script)-1)](w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &attempts
}

func status(code int) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		httpapi.WriteError(w, code, http.StatusText(code))
	}
}

func body(s string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write([]byte(s)) }
}

func answer(w http.ResponseWriter, r *http.Request) {
	var req httpapi.PredictRequest
	if !httpapi.ReadPredictRequest(w, r, &req) {
		return
	}
	httpapi.WritePredictResponse(w, &httpapi.PredictResponse{
		Class: len(req.X), Expert: 3, Matched: true, Model: req.Model,
		Replica: r.Header.Get("Authorization"), GatewayCached: r.Header.Get("traceparent") != "",
	})
}

func predict(tgt *HTTPTarget, parent *telemetry.Span) (Answer, error) {
	return tgt.Predict(context.Background(), "m", tensor.Vector{1, 2, 3}, parent, time.Now())
}

func TestHTTPTargetAnswersAndPropagates(t *testing.T) {
	ts, attempts := scripted(t, answer)
	tgt := NewHTTPTarget(ts.URL, "tok", 2, 1)
	defer tgt.Close()

	ans, err := predict(tgt, &telemetry.Span{})
	if err != nil {
		t.Fatal(err)
	}
	if (ans != Answer{Class: 3, Expert: 3, Matched: true}) {
		t.Fatalf("untraced answer %+v", ans)
	}
	// A traced request carries its traceparent (the fake echoes that as
	// GatewayCached), and the bearer token always travels.
	root := telemetry.NewTracer("test", 8).StartRoot("loadgen.predict")
	if ans, err = predict(tgt, root); err != nil || !ans.GatewayCached {
		t.Fatalf("traced answer %+v, err %v: traceparent not sent", ans, err)
	}
	if attempts.Load() != 2 || tgt.Retried() != 0 || tgt.Rejected() != 0 {
		t.Fatalf("attempts=%d retried=%d rejected=%d on the happy path", attempts.Load(), tgt.Retried(), tgt.Rejected())
	}
}

func TestHTTPTargetBacksOffAndRetriesRejections(t *testing.T) {
	ts, attempts := scripted(t, status(http.StatusServiceUnavailable), status(http.StatusTooManyRequests), answer)
	tgt := NewHTTPTarget(ts.URL, "", 2, 1)
	defer tgt.Close()

	begin := time.Now()
	if _, err := predict(tgt, nil); err != nil {
		t.Fatalf("third attempt should have answered: %v", err)
	}
	if took := time.Since(begin); took < 2*retryBackoff {
		t.Fatalf("two rejections answered in %v, want two backoffs of %v", took, retryBackoff)
	}
	if attempts.Load() != 3 || tgt.Retried() != 2 || tgt.Rejected() != 2 {
		t.Fatalf("attempts=%d retried=%d rejected=%d, want 3/2/2", attempts.Load(), tgt.Retried(), tgt.Rejected())
	}

	// The budget is per request and bounds the attempts.
	ts2, attempts2 := scripted(t, status(http.StatusServiceUnavailable))
	tgt2 := NewHTTPTarget(ts2.URL, "", 1, 1)
	defer tgt2.Close()
	if _, err := predict(tgt2, nil); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("err=%v, want the last attempt's 503", err)
	}
	if attempts2.Load() != 2 || tgt2.Retried() != 1 || tgt2.Rejected() != 2 {
		t.Fatalf("attempts=%d retried=%d rejected=%d, want 2/1/2", attempts2.Load(), tgt2.Retried(), tgt2.Rejected())
	}
}

func TestHTTPTargetDoesNotRetryUnauthorized(t *testing.T) {
	ts, attempts := scripted(t, status(http.StatusUnauthorized), answer)
	tgt := NewHTTPTarget(ts.URL, "wrong", 5, 1)
	defer tgt.Close()
	if _, err := predict(tgt, nil); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("err=%v, want the 401", err)
	}
	if attempts.Load() != 1 || tgt.Retried() != 0 || tgt.Rejected() != 1 {
		t.Fatalf("attempts=%d retried=%d rejected=%d, want 1/0/1", attempts.Load(), tgt.Retried(), tgt.Rejected())
	}
}

func TestHTTPTargetRefusesBadBodies(t *testing.T) {
	for name, tc := range map[string]struct {
		h    http.HandlerFunc
		want string
	}{
		"garbled":   {body(`{"class": `), "bad answer"},
		"not json":  {body(`<html>`), "bad answer"},
		"oversized": {body(`{"class": 1, "model": "` + strings.Repeat("x", httpapi.MaxPredictBody) + `"}`), httpapi.ErrBodyTooLarge.Error()},
	} {
		ts, attempts := scripted(t, tc.h)
		tgt := NewHTTPTarget(ts.URL, "", 1, 1)
		_, err := predict(tgt, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want mention of %q", name, err, tc.want)
		}
		// A bad body is a failed attempt like any other: retried, not
		// counted as a middleware rejection.
		if attempts.Load() != 2 || tgt.Retried() != 1 || tgt.Rejected() != 0 {
			t.Errorf("%s: attempts=%d retried=%d rejected=%d, want 2/1/0", name, attempts.Load(), tgt.Retried(), tgt.Rejected())
		}
		tgt.Close()
	}
}

func TestHTTPTargetState(t *testing.T) {
	var code atomic.Int64
	code.Store(http.StatusOK)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/state" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		if c := int(code.Load()); c != http.StatusOK {
			http.Error(w, "upstream on fire", c)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, httpapi.State{Gateway: &httpapi.GatewayState{Failovers: 7}})
	}))
	defer ts.Close()
	tgt := NewHTTPTarget(ts.URL, "", 0, 1)
	defer tgt.Close()

	st, err := tgt.State(context.Background())
	if err != nil || st.Gateway == nil || st.Gateway.Failovers != 7 {
		t.Fatalf("state %+v, err %v", st, err)
	}
	// A 5xx is reported as its status, not as the JSON error its plain-text
	// body would produce.
	code.Store(http.StatusBadGateway)
	if _, err := tgt.State(context.Background()); err == nil || !strings.Contains(err.Error(), "502") {
		t.Fatalf("err=%v, want the status code", err)
	}
}
