package httpapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// canonicalRequest is a 32-feature body as every client in the repo sends
// it: json.Marshal of a PredictRequest naming the default model.
func canonicalRequest(t testing.TB) (tensor.Vector, []byte) {
	t.Helper()
	x := tensor.NewRNG(11).NormVec(32, 0, 1)
	x[3], x[4], x[5] = 0, 1e-9, -2.5e22 // exercise "0", "e-9" and "e+22"
	body, err := json.Marshal(PredictRequest{X: x, Model: DefaultModel})
	if err != nil {
		t.Fatal(err)
	}
	return x, body
}

// strictDecode is the decode the handlers ran before the codec existed.
func strictDecode(body []byte, req *PredictRequest) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

func sameBits(a, b tensor.Vector) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkRequestDecode holds DecodePredictRequest to the strict encoding/json
// decode on body: same error, same bits, same model.
func checkRequestDecode(t *testing.T, body []byte) {
	t.Helper()
	var want, got PredictRequest
	wantErr := strictDecode(body, &want)
	gotErr := DecodePredictRequest(body, &got)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("request %q: error %v, encoding/json says %v", body, gotErr, wantErr)
	}
	if !sameBits(got.X, want.X) || got.Model != want.Model {
		t.Fatalf("request %q: decoded %+v, encoding/json says %+v", body, got, want)
	}
}

func checkResponseDecode(t *testing.T, raw []byte, known string) {
	t.Helper()
	var want, got PredictResponse
	wantErr := json.Unmarshal(raw, &want)
	gotErr := DecodePredictResponse(raw, known, &got)
	if errText(gotErr) != errText(wantErr) || got != want {
		t.Fatalf("response %q: decoded %+v (%v), encoding/json says %+v (%v)", raw, got, gotErr, want, wantErr)
	}
}

var requestCorpus = []string{
	`{"x":[1,2.5,-3e-7],"model":"default"}`,
	`{"x":[1]}`,
	`{"model":"m","x":[1]}`,
	` { "x" : [ 1 , 2 ] , "model" : "m" } ` + "\n",
	`{"X":[1]}`,             // upper-case key: encoding/json folds case
	`{"x":[1],"x":[2]}`,     // duplicate key: last one wins
	`{"\u0078":[1]}`,        // escaped key that spells x
	`{"x":[1],"y":2}`,       // unknown key
	`{"x":[1e999]}`,         // out of range
	`{"x":[-0,0,1E2,1e+2]}`, // signed zero, exponent spellings
	`{"x":[01]}`,            // leading zero
	`{"x":[1.]}`, `{"x":[.5]}`, `{"x":[-]}`, `{"x":[+1]}`, `{"x":[1,]}`,
	`{"x":[1]} trailing`, // a Decoder stops after the first value
	`{"x":[1]}{"x":[2]}`,
	`{"x":null}`, `{"x":[]}`, `{"x":[ ]}`, `{"x":[null]}`, `{"x":[[1]]}`, `{"x":"1"}`,
	`{"x":[1],"model":null}`, `{"x":[1],"model":"a\"b"}`, `{"x":[1],"model":"é"}`, `{"x":[1],"model":7}`,
	`{}`, `[]`, `null`, ``, `{`, `{"x":[1]`, `{"x":[1,2`, `{"x":[1]]}`,
	`{"x":[0.1234567890123456789012345678901234567890]}`, // longer than strconv's stack buffer
}

var responseCorpus = []string{
	"{\n  \"class\": 3,\n  \"expert\": 2,\n  \"matched\": true,\n  \"cached\": false,\n  \"snapshot\": 1,\n  \"model\": \"default\"\n}\n",
	`{"class":3,"expert":2,"matched":true,"cached":false,"snapshot":1,"model":"m","replica":"127.0.0.1:9","gatewayCached":true}`,
	`{"class":-0}`, `{"class":1.0}`, `{"class":1e2}`, `{"class":99999999999999999999}`, `{"class":"1"}`,
	`{"Class":1}`, `{"class":1,"class":2}`, `{"class":1,"extra":{}}`, `{"matched":1}`, `{"matched":tru}`,
	`{"model":"a\u0062"}`, `{"model":null}`, `{"class":1} x`, `{"class":1}{}`, `{}`, ``, `null`,
}

// FuzzPredictCodec is the codec's contract with encoding/json. From
// arbitrary bytes: both decoders agree with the call they replace on the
// error and on every decoded bit. From arbitrary values (x from the bytes,
// eight per feature, so NaN, infinities and subnormals all occur): both
// encoders emit json.Marshal's / WriteJSON's bytes exactly.
func FuzzPredictCodec(f *testing.F) {
	_, canonical := canonicalRequest(f)
	f.Add(canonical, DefaultModel, 3, uint8(1))
	for _, s := range requestCorpus {
		f.Add([]byte(s), "m", 0, uint8(0))
	}
	for _, s := range responseCorpus {
		f.Add([]byte(s), DefaultModel, -1, uint8(0xff))
	}
	f.Fuzz(func(t *testing.T, data []byte, name string, n int, flags uint8) {
		checkRequestDecode(t, data)
		checkResponseDecode(t, data, name)

		var x tensor.Vector
		if flags&1 != 0 {
			x = tensor.Vector{}
		}
		for ; len(data) >= 8; data = data[8:] {
			x = append(x, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		want, wantErr := json.Marshal(PredictRequest{X: x, Model: name})
		got, gotErr := AppendPredictRequest([]byte("prefix"), x, name)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("encode %v %q: error %v, json.Marshal says %v", x, name, gotErr, wantErr)
		}
		if wantErr == nil && string(got) != "prefix"+string(want) {
			t.Fatalf("encode %v %q:\n got %s\nwant prefix%s", x, name, got, want)
		}
		if wantErr == nil {
			checkRequestDecode(t, want)
		}

		resp := PredictResponse{
			Class: n, Expert: -n, Snapshot: n >> 3, Model: name,
			Matched: flags&2 != 0, Cached: flags&4 != 0, GatewayCached: flags&8 != 0,
		}
		if flags&16 != 0 {
			resp.Replica = name + ":80"
		}
		checkResponseWrite(t, resp)
	})
}

// checkResponseWrite holds WritePredictResponse to WriteJSON — status,
// headers and body — and the result to a decode round trip.
func checkResponseWrite(t *testing.T, resp PredictResponse) {
	t.Helper()
	want, got := httptest.NewRecorder(), httptest.NewRecorder()
	WriteJSON(want, http.StatusOK, resp)
	WritePredictResponse(got, &resp)
	if got.Code != want.Code || got.Body.String() != want.Body.String() ||
		got.Header().Get("Content-Type") != want.Header().Get("Content-Type") || len(got.Header()) != len(want.Header()) {
		t.Fatalf("%+v:\n got %d %v %q\nwant %d %v %q", resp,
			got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
	}
	checkResponseDecode(t, got.Body.Bytes(), resp.Model)
}

func TestPredictCodecCorpus(t *testing.T) {
	_, canonical := canonicalRequest(t)
	checkRequestDecode(t, canonical)
	for _, s := range requestCorpus {
		checkRequestDecode(t, []byte(s))
	}
	for _, s := range responseCorpus {
		checkResponseDecode(t, []byte(s), DefaultModel)
		checkResponseDecode(t, []byte(s), "m")
	}
	// The canonical shapes must take the scanner, not the fallback, or the
	// allocation pins below would be the only thing noticing.
	var req PredictRequest
	if !scanPredictRequest(canonical, &req) || len(req.X) != 32 || req.Model != DefaultModel {
		t.Errorf("scanner refused the canonical request: %+v", req)
	}
	var resp PredictResponse
	if !scanPredictResponse([]byte(responseCorpus[0]), DefaultModel, &resp) || resp.Class != 3 {
		t.Errorf("scanner refused the canonical response: %+v", resp)
	}
}

// A field the body does not name keeps the caller's value, as with
// encoding/json.
func TestDecodeLeavesAbsentFieldsAlone(t *testing.T) {
	req := PredictRequest{X: tensor.Vector{9}, Model: "kept"}
	if err := DecodePredictRequest([]byte(`{"x":[1]}`), &req); err != nil || req.Model != "kept" || req.X[0] != 1 {
		t.Errorf("request: %+v, %v", req, err)
	}
	resp := PredictResponse{Class: 9, Replica: "kept"}
	if err := DecodePredictResponse([]byte(`{"class":1}`), "", &resp); err != nil || resp.Replica != "kept" || resp.Class != 1 {
		t.Errorf("response: %+v, %v", resp, err)
	}
}

func TestWritePredictResponseMatchesWriteJSON(t *testing.T) {
	names := []string{"", "default", "fmow-v2", "a<b", `a"b`, `a\b`, "modèle", "tab\tbed", "a&b", "\x7f"}
	for flags := 0; flags < 8; flags++ {
		for _, model := range names {
			for _, replica := range append([]string{"127.0.0.1:8080"}, names...) {
				for _, n := range []int{0, 7, -3, math.MaxInt64, math.MinInt64} {
					checkResponseWrite(t, PredictResponse{
						Class: n, Expert: n / 2, Snapshot: -n / 3, Model: model, Replica: replica,
						Matched: flags&1 != 0, Cached: flags&2 != 0, GatewayCached: flags&4 != 0,
					})
				}
			}
		}
	}
}

// The allocation budget of the hot path, per call.
func TestPredictCodecAllocs(t *testing.T) {
	x, body := canonicalRequest(t)
	var req PredictRequest
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodePredictRequest(body, &req); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("DecodePredictRequest: %v allocs, want <= 1 (the X slice)", n)
	}
	buf := make([]byte, 0, 2*len(body))
	if n := testing.AllocsPerRun(200, func() {
		if _, err := AppendPredictRequest(buf, x, DefaultModel); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendPredictRequest into a warm buffer: %v allocs, want 0", n)
	}
	raw := []byte(responseCorpus[0])
	var resp PredictResponse
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodePredictResponse(raw, DefaultModel, &resp); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodePredictResponse with the known model: %v allocs, want 0", n)
	}
	rec := httptest.NewRecorder()
	resp = PredictResponse{Class: 3, Expert: 2, Matched: true, Snapshot: 1, Model: DefaultModel, Replica: "127.0.0.1:8080"}
	if n := testing.AllocsPerRun(200, func() {
		rec.Body.Reset()
		WritePredictResponse(rec, &resp)
	}); n > 2 {
		t.Errorf("WritePredictResponse to a reused recorder: %v allocs, want <= 2", n)
	}
}

func TestScratchReadBodyCap(t *testing.T) {
	s := GetScratch()
	defer s.Release()
	fits := bytes.Repeat([]byte{'a'}, MaxPredictBody)
	if err := s.ReadBody(bytes.NewReader(fits)); err != nil || !bytes.Equal(s.Buf, fits) {
		t.Fatalf("a body of exactly the cap: %d bytes read, %v", len(s.Buf), err)
	}
	if err := s.ReadBody(bytes.NewReader(append(fits, 'a'))); !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("cap + 1: %v, want ErrBodyTooLarge", err)
	}
	// A body that never ends is cut off having buffered no more than cap + 1.
	endless := &countingReader{}
	if err := s.ReadBody(endless); !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("endless body: %v, want ErrBodyTooLarge", err)
	}
	if endless.n > MaxPredictBody+1 || cap(s.Buf) > MaxPredictBody+1 {
		t.Errorf("endless body: consumed %d bytes into a %d-byte buffer, cap is %d", endless.n, cap(s.Buf), MaxPredictBody)
	}
	boom := errors.New("boom")
	if err := s.ReadBody(io.MultiReader(strings.NewReader("abc"), errReader{boom})); !errors.Is(err, boom) {
		t.Errorf("read error: %v, want boom", err)
	}
}

type countingReader struct{ n int }

func (r *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '1'
	}
	r.n += len(p)
	return len(p), nil
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// net/http may still be reading a request body after RoundTrip returns, so
// a released Scratch must not be handed out again until its reader closes.
func TestScratchNotRecycledWhileReaderOpen(t *testing.T) {
	s := GetScratch()
	s.Buf = append(s.Buf, "payload"...)
	rd := s.Reader()
	s.Release()
	if s.refs.Load() != 1 {
		t.Fatalf("refs after Release with an open reader = %d, want 1", s.refs.Load())
	}
	got, err := io.ReadAll(rd)
	if err != nil || string(got) != "payload" {
		t.Fatalf("read after Release: %q, %v", got, err)
	}
	again, err := s.GetBody()
	if err != nil {
		t.Fatal(err)
	}
	rd.Close()
	rd.Close() // the transport may close twice
	if s.refs.Load() != 1 {
		t.Fatalf("refs with the retry reader open = %d, want 1", s.refs.Load())
	}
	if got, _ := io.ReadAll(again); string(got) != "payload" {
		t.Fatalf("retry reader read %q", got)
	}
	again.Close()
	if s.refs.Load() != 0 {
		t.Fatalf("refs after the last Close = %d, want 0", s.refs.Load())
	}
}

func TestReadPredictRequestAnswers(t *testing.T) {
	_, canonical := canonicalRequest(t)
	cases := []struct {
		name, method string
		body         io.Reader
		status       int
	}{
		{"ok", http.MethodPost, bytes.NewReader(canonical), 0},
		{"get", http.MethodGet, http.NoBody, http.StatusMethodNotAllowed},
		{"syntax", http.MethodPost, strings.NewReader(`{"x":[1,}`), http.StatusBadRequest},
		{"unknown field", http.MethodPost, strings.NewReader(`{"x":[1],"y":1}`), http.StatusBadRequest},
		{"declared too large", http.MethodPost, bytes.NewReader(make([]byte, MaxPredictBody+1)), http.StatusRequestEntityTooLarge},
		{"chunked too large", http.MethodPost, &countingReader{}, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		var req PredictRequest
		ok := ReadPredictRequest(rec, httptest.NewRequest(c.method, "/v1/predict", c.body), &req)
		if ok != (c.status == 0) {
			t.Errorf("%s: ok = %v", c.name, ok)
		}
		if !ok {
			var eb ErrorBody
			if rec.Code != c.status || json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error == "" {
				t.Errorf("%s: answered %d %q, want %d with an ErrorBody", c.name, rec.Code, rec.Body, c.status)
			}
		} else if len(req.X) != 32 {
			t.Errorf("%s: decoded %d features", c.name, len(req.X))
		}
	}
}
