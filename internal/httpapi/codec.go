package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// This file is the allocation-lean codec of the two hot messages,
// PredictRequest and PredictResponse, and the pooled scratch their bytes
// live in. The contract with encoding/json, pinned by FuzzPredictCodec:
//
//   - the encoders (AppendPredictRequest, WritePredictResponse) emit exactly
//     the bytes json.Marshal / WriteJSON would, so either side of a hop may
//     use either codec and a request is recognisable by its body bytes;
//   - the decoders (DecodePredictRequest, DecodePredictResponse) hand-scan
//     only the canonical shape — exact lower-case keys, each at most once,
//     escape-free ASCII strings, RFC 8259 numbers through strconv, nothing
//     but whitespace after the closing brace — and on anything else re-run
//     the encoding/json call they replace on the same bytes. Values and
//     errors are therefore encoding/json's own.

// MaxPredictBody caps a /v1/predict body, request or response, on every
// tier. The largest legitimate request (a few thousand features) is three
// orders of magnitude smaller.
const MaxPredictBody = 1 << 20

// ErrBodyTooLarge reports a body longer than MaxPredictBody.
var ErrBodyTooLarge = fmt.Errorf("body exceeds %d bytes", MaxPredictBody)

// Scratch is pooled per-request working memory for the predict path: a
// body buffer and an io.ReadCloser over it. Take one with GetScratch, give
// it back with Release. X is deliberately not in here: a cancelled
// serve.Server.Predict can return while its request is still queued for a
// worker, so the input vector must outlive the handler that decoded it.
type Scratch struct {
	Buf []byte

	// GetBody re-opens Buf for a transport retry (http.Request.GetBody);
	// built once per Scratch so handing it out allocates nothing.
	GetBody func() (io.ReadCloser, error)

	// refs counts the holder plus every unclosed reader: net/http may read
	// a request body after RoundTrip has returned, so the buffer goes back
	// to the pool only once the transport has closed the last reader.
	refs atomic.Int32
	rd   bodyReader
}

// keepScratch is the largest buffer a released Scratch retains; one
// near-cap body must not pin a megabyte per pool slot.
const keepScratch = 64 << 10

var scratchPool = sync.Pool{New: func() any {
	s := &Scratch{Buf: make([]byte, 0, 1024)}
	s.rd.s = s
	s.GetBody = func() (io.ReadCloser, error) {
		s.refs.Add(1)
		return &bodyReader{s: s}, nil // the retry path may allocate
	}
	return s
}}

// GetScratch returns an empty Scratch from the pool.
func GetScratch() *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.refs.Store(1)
	s.Buf = s.Buf[:0]
	return s
}

// Release gives the Scratch back. Buf must not be used afterwards; the
// memory is recycled once every Reader has also been closed.
func (s *Scratch) Release() {
	if s.refs.Add(-1) != 0 {
		return
	}
	if cap(s.Buf) > keepScratch {
		s.Buf = make([]byte, 0, 1024)
	}
	scratchPool.Put(s)
}

// Reader returns the Scratch's reusable reader positioned at the start of
// Buf, for use as an outgoing request body. One at a time: call it again
// only after the previous reader was closed.
func (s *Scratch) Reader() io.ReadCloser {
	s.refs.Add(1)
	s.rd.off = 0
	s.rd.closed.Store(false)
	return &s.rd
}

type bodyReader struct {
	s      *Scratch
	off    int
	closed atomic.Bool
}

func (r *bodyReader) Read(p []byte) (int, error) {
	if r.off >= len(r.s.Buf) {
		return 0, io.EOF
	}
	n := copy(p, r.s.Buf[r.off:])
	r.off += n
	return n, nil
}

func (r *bodyReader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.s.Release()
	}
	return nil
}

// ReadBody reads r to EOF into Buf, failing with ErrBodyTooLarge as soon as
// more than MaxPredictBody bytes have arrived; it never holds more than the
// cap plus one byte.
func (s *Scratch) ReadBody(r io.Reader) error {
	b := s.Buf[:0]
	for {
		if len(b) == cap(b) {
			grown := make([]byte, len(b), min(2*cap(b)+512, MaxPredictBody+1))
			copy(grown, b)
			b = grown
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		s.Buf = b
		if len(b) > MaxPredictBody {
			return ErrBodyTooLarge
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// ReadPredictRequest reads and decodes a POST /v1/predict body under
// MaxPredictBody. When it returns false it has already answered: 405 for a
// non-POST, 413 for an oversized body, 400 for one that does not decode.
func ReadPredictRequest(w http.ResponseWriter, r *http.Request, req *PredictRequest) bool {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	s := GetScratch()
	defer s.Release()
	err := ErrBodyTooLarge
	if r.ContentLength <= MaxPredictBody {
		err = s.ReadBody(r.Body)
	}
	if err == nil {
		err = DecodePredictRequest(s.Buf, req)
	}
	switch {
	case errors.Is(err, ErrBodyTooLarge):
		// The rest of the body is unread; do not let it be parsed as the
		// connection's next request.
		w.Header().Set("Connection", "close")
		WriteError(w, http.StatusRequestEntityTooLarge, err.Error())
	case err != nil:
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
	}
	return err == nil
}

// DecodePredictRequest decodes a predict body into req exactly as a
// json.Decoder with DisallowUnknownFields would (same values, same
// errors); a canonical body costs one allocation, req.X.
func DecodePredictRequest(body []byte, req *PredictRequest) error {
	if scanPredictRequest(body, req) {
		return nil
	}
	// Decode into a copy: handing req itself to encoding/json would move
	// every caller's request to the heap, fast path included.
	v := *req
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	*req = v
	return err
}

// DecodePredictResponse decodes a predict answer into resp exactly as
// json.Unmarshal would. A model name equal to knownModel is returned as
// knownModel itself, not a copy.
func DecodePredictResponse(raw []byte, knownModel string, resp *PredictResponse) error {
	if scanPredictResponse(raw, knownModel, resp) {
		return nil
	}
	v := *resp // a copy, for the same reason as in DecodePredictRequest
	err := json.Unmarshal(raw, &v)
	*resp = v
	return err
}

// AppendPredictRequest appends to dst the bytes json.Marshal gives for
// PredictRequest{X: x, Model: model}, and fails where it fails (a NaN or
// infinite feature).
func AppendPredictRequest(dst []byte, x tensor.Vector, model string) ([]byte, error) {
	if !plainString(model) {
		return appendMarshal(dst, x, model)
	}
	mark := len(dst)
	dst = append(dst, `{"x":`...)
	if x == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, f := range x {
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return appendMarshal(dst[:mark], x, model)
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, f)
		}
		dst = append(dst, ']')
	}
	if model != "" {
		dst = append(dst, `,"model":"`...)
		dst = append(dst, model...)
		dst = append(dst, '"')
	}
	return append(dst, '}'), nil
}

func appendMarshal(dst []byte, x tensor.Vector, model string) ([]byte, error) {
	b, err := json.Marshal(PredictRequest{X: x, Model: model})
	return append(dst, b...), err
}

// appendFloat is encoding/json's float64 format: shortest round-trip
// digits, exponent form outside [1e-6, 1e21), two-digit exponents cut to
// one (e-07 → e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// jsonContentType is shared by every answer WritePredictResponse sends;
// full (len == cap), so a later Header().Add copies instead of writing here.
var jsonContentType = []string{"application/json"}

// WritePredictResponse answers 200 with resp, byte for byte what
// WriteJSON(w, http.StatusOK, *resp) sends.
func WritePredictResponse(w http.ResponseWriter, resp *PredictResponse) {
	if !plainString(resp.Model) || !plainString(resp.Replica) {
		WriteJSON(w, http.StatusOK, *resp) // by value, so resp itself stays on the caller's stack
		return
	}
	s := GetScratch()
	defer s.Release()
	b := append(s.Buf, "{\n  \"class\": "...)
	b = strconv.AppendInt(b, int64(resp.Class), 10)
	b = append(b, ",\n  \"expert\": "...)
	b = strconv.AppendInt(b, int64(resp.Expert), 10)
	b = append(b, ",\n  \"matched\": "...)
	b = strconv.AppendBool(b, resp.Matched)
	b = append(b, ",\n  \"cached\": "...)
	b = strconv.AppendBool(b, resp.Cached)
	b = append(b, ",\n  \"snapshot\": "...)
	b = strconv.AppendInt(b, int64(resp.Snapshot), 10)
	b = append(b, ",\n  \"model\": \""...)
	b = append(b, resp.Model...)
	b = append(b, '"')
	if resp.Replica != "" {
		b = append(b, ",\n  \"replica\": \""...)
		b = append(b, resp.Replica...)
		b = append(b, '"')
	}
	if resp.GatewayCached {
		b = append(b, ",\n  \"gatewayCached\": true"...)
	}
	b = append(b, "\n}\n"...)
	s.Buf = b
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // a client that left mid-answer is net/http's to notice
}

// plainString reports whether encoding/json would emit s between quotes
// unchanged: printable ASCII without the characters it escapes.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// scanner walks one JSON document left to right. Every method that can
// fail returns ok=false and leaves the caller to fall back to encoding/json.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// eat skips whitespace, then consumes c if it is next.
func (s *scanner) eat(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (s *scanner) end() bool {
	s.space()
	return s.i == len(s.b)
}

// str consumes a quoted string of unescaped printable ASCII and returns its
// contents (a view into the document).
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number consumes one RFC 8259 number and returns its text; integer is set
// when it has neither fraction nor exponent.
func (s *scanner) number() (tok []byte, integer, ok bool) {
	s.space()
	b, i := s.b, s.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if integer = false; !digits() {
			return nil, false, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if integer = false; !digits() {
			return nil, false, false
		}
	}
	tok, s.i = b[s.i:i], i
	return tok, integer, true
}

func (s *scanner) integer() (int, bool) {
	tok, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	return int(n), err == nil && int64(int(n)) == n
}

func (s *scanner) boolean() (v, ok bool) {
	s.space()
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false, true
	}
	return false, false
}

// floats consumes an array of numbers. The result is sized once, from the
// commas before the closing bracket, and is a fresh allocation.
func (s *scanner) floats() (tensor.Vector, bool) {
	if !s.eat('[') {
		return nil, false
	}
	if s.eat(']') {
		return tensor.Vector{}, true
	}
	end := bytes.IndexByte(s.b[s.i:], ']')
	if end < 0 {
		return nil, false
	}
	x := make(tensor.Vector, 0, 1+bytes.Count(s.b[s.i:s.i+end], []byte{','}))
	for {
		tok, _, ok := s.number()
		if !ok {
			return nil, false
		}
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return nil, false
		}
		x = append(x, f)
		if s.eat(']') {
			return x, true
		}
		if !s.eat(',') {
			return nil, false
		}
	}
}

// members drives field over each "key": of one object and reports whether
// the whole document was that object in canonical form. field consumes the
// value; it returns false for an unknown or repeated key or a bad value.
func (s *scanner) members(field func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') || !field(key) {
			return false
		}
		if s.eat('}') {
			return s.end()
		}
		if !s.eat(',') {
			return false
		}
	}
}

// intern returns known itself when b spells it, else a copy of b.
func intern(b []byte, known string) string {
	if string(b) == known {
		return known
	}
	return string(b)
}

func scanPredictRequest(body []byte, req *PredictRequest) bool {
	s := scanner{b: body}
	// Like encoding/json, a field the body does not name keeps its value.
	got := *req
	var seen uint8
	ok := s.members(func(key []byte) (ok bool) {
		var bit uint8
		switch string(key) {
		case "x":
			bit = 1 << 0
			got.X, ok = s.floats()
		case "model":
			bit = 1 << 1
			var v []byte
			if v, ok = s.str(); ok {
				got.Model = intern(v, DefaultModel)
			}
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return ok
	})
	if ok {
		*req = got
	}
	return ok
}

func scanPredictResponse(raw []byte, knownModel string, resp *PredictResponse) bool {
	s := scanner{b: raw}
	got := *resp
	var seen uint8
	ok := s.members(func(key []byte) (ok bool) {
		var bit uint8
		var v []byte
		switch string(key) {
		case "class":
			bit = 1 << 0
			got.Class, ok = s.integer()
		case "expert":
			bit = 1 << 1
			got.Expert, ok = s.integer()
		case "matched":
			bit = 1 << 2
			got.Matched, ok = s.boolean()
		case "cached":
			bit = 1 << 3
			got.Cached, ok = s.boolean()
		case "snapshot":
			bit = 1 << 4
			got.Snapshot, ok = s.integer()
		case "model":
			bit = 1 << 5
			if v, ok = s.str(); ok {
				got.Model = intern(v, knownModel)
			}
		case "replica":
			bit = 1 << 6
			if v, ok = s.str(); ok {
				got.Replica = string(v)
			}
		case "gatewayCached":
			bit = 1 << 7
			got.GatewayCached, ok = s.boolean()
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return ok
	})
	if ok {
		*resp = got
	}
	return ok
}
