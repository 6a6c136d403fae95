package fl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// Wire format (version 2). A connection is persistent and carries any number
// of request/response exchanges, one at a time:
//
//	preamble  magic 0x80 'F' 'L' 'W' | version uint32 LE      once, each way
//	frame     envLen uint32 LE | vecLen uint32 LE
//	          envLen bytes     gob envelope (request or response)
//	          vecLen*8 bytes   float64 parameter vector, IEEE bits, LE
//
// The envelope is gob so it stays schema-tolerant, but both ends keep one
// encoder and one decoder for the life of the connection: type descriptors
// cross once and decode engines compile once. The one model-sized field of
// each envelope (request.Global, Update.Params) travels outside gob as the raw
// vector block. Both lengths are checked before any memory is committed: the
// envelope against maxEnvelope, the vector against maxVectorLen and — by the
// receiver, once it has the envelope — against the parameter count the
// exchange calls for. The protocol carries model parameters and aggregate
// statistics only; raw examples never cross the wire.
const (
	wireVersion = 2
	// maxEnvelope bounds one gob envelope (the largest is a statistics
	// response: 64 embedding samples) and is the most a peer can make the
	// receiver commit before sending the bytes.
	maxEnvelope = 1 << 20
	// maxVectorLen bounds one parameter vector, in float64s (32 MiB).
	maxVectorLen = 1 << 22
	// growFloats bounds how far a receive buffer grows ahead of the floats
	// that have actually arrived.
	growFloats = 1 << 16
	// wireBuf sizes each direction's bufio buffer: all a connection holds
	// while idle, besides its codec state.
	wireBuf = 16 << 10
)

// wireMagic opens the preamble. 0x80 is not a valid first byte of a gob
// stream (it announces a 128-byte length prefix), so a version-1 peer — bare
// gob, one exchange per connection — fails its first decode at once instead
// of waiting for more input.
var wireMagic = [4]byte{0x80, 'F', 'L', 'W'}

// legacyDrainTimeout bounds how long a version-1 peer is given to finish
// sending the request it will be refused for.
const legacyDrainTimeout = 2 * time.Second

// errLegacyPeer answers a version-1 aggregator in the only format it reads.
const errLegacyPeer = "fl: wire version mismatch: this party speaks the framed fl wire v2, the aggregator sent a bare gob (v1) request; upgrade the aggregator"

// wire is one end of a persistent connection and its long-lived codec.
type wire struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	enc  *gob.Encoder // encodes into out
	dec  *gob.Decoder // decodes from in
	out  bytes.Buffer
	in   bytes.Reader
	env  []byte // received envelope, backing in; reused
}

func newWire(conn net.Conn) *wire {
	w := &wire{conn: conn, br: bufio.NewReaderSize(conn, wireBuf), bw: bufio.NewWriterSize(conn, wireBuf)}
	w.enc = gob.NewEncoder(&w.out)
	w.dec = gob.NewDecoder(&w.in)
	return w
}

func (w *wire) writePreamble() error {
	var p [8]byte
	copy(p[:], wireMagic[:])
	binary.LittleEndian.PutUint32(p[4:], wireVersion)
	if _, err := w.bw.Write(p[:]); err != nil {
		return err
	}
	return w.bw.Flush()
}

// readPreamble reads the peer's preamble; ok is false when it does not open
// with the magic (the peer is not a framed-wire peer at all).
func (w *wire) readPreamble() (version uint32, ok bool, err error) {
	var p [8]byte
	if _, err := io.ReadFull(w.br, p[:]); err != nil {
		return 0, false, err
	}
	return binary.LittleEndian.Uint32(p[4:]), [4]byte(p[:4]) == wireMagic, nil
}

// clientHandshake sends the preamble and checks the party's.
func (w *wire) clientHandshake() error {
	if err := w.writePreamble(); err != nil {
		return err
	}
	v, ok, err := w.readPreamble()
	switch {
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("peer closed the connection instead of answering the wire v%d preamble (a party that predates the framed wire?): %w", wireVersion, err)
	case err != nil:
		return err
	case !ok:
		return errors.New("peer did not answer with the fl wire preamble (not a shiftex party?)")
	case v != wireVersion:
		return fmt.Errorf("wire version mismatch: party speaks v%d, this aggregator v%d", v, wireVersion)
	}
	return nil
}

// serverHandshake checks the aggregator's preamble and answers with its own.
// A mismatched peer is told so in a form it can read before the error
// returns: a framed peer gets this side's version, a version-1 peer a bare
// gob response carrying errLegacyPeer.
func (w *wire) serverHandshake() error {
	v, ok, err := w.readPreamble()
	if err != nil {
		return err
	}
	if !ok {
		// Best effort. The peer is still writing its request and reads the
		// answer only afterwards, so swallow the request (bounded in time and
		// size) instead of resetting the connection under it.
		_ = gob.NewEncoder(w.conn).Encode(&response{Err: errLegacyPeer})
		_ = w.conn.SetDeadline(time.Now().Add(legacyDrainTimeout))
		_, _ = io.CopyN(io.Discard, w.br, 8*maxVectorLen)
		return errors.New(errLegacyPeer)
	}
	if err := w.writePreamble(); err != nil {
		return err
	}
	if v != wireVersion {
		return fmt.Errorf("fl: wire version mismatch: aggregator speaks v%d, this party v%d", v, wireVersion)
	}
	return nil
}

// send writes one frame: the envelope through the connection's encoder, then
// vec as raw little-endian IEEE bits.
func (w *wire) send(envelope any, vec []float64) error {
	w.out.Reset()
	if err := w.enc.Encode(envelope); err != nil {
		return err
	}
	if w.out.Len() > maxEnvelope || len(vec) > maxVectorLen {
		return fmt.Errorf("fl: frame too large: envelope %d bytes (max %d), vector %d floats (max %d)", w.out.Len(), maxEnvelope, len(vec), maxVectorLen)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(w.out.Len()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(vec)))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(w.out.Bytes()); err != nil {
		return err
	}
	for len(vec) > 0 {
		buf := w.bw.AvailableBuffer()
		if cap(buf) < 8 {
			if err := w.bw.Flush(); err != nil {
				return err
			}
			continue
		}
		n := min(len(vec), cap(buf)/8)
		for _, f := range vec[:n] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
		if _, err := w.bw.Write(buf); err != nil {
			return err
		}
		vec = vec[n:]
	}
	return w.bw.Flush()
}

// recv reads one frame's header and envelope and decodes the envelope into a
// zero value the caller passes (gob omits zero fields, so a reused struct
// would keep the previous exchange's). It returns the length of the vector
// block that follows; the caller validates it and must then consume it with
// recvVector, or drop the connection.
func (w *wire) recv(envelope any) (vecLen int, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(w.br, hdr[:]); err != nil {
		return 0, err
	}
	envLen, vecLen32 := binary.LittleEndian.Uint32(hdr[:4]), binary.LittleEndian.Uint32(hdr[4:])
	if envLen == 0 || envLen > maxEnvelope || vecLen32 > maxVectorLen {
		return 0, fmt.Errorf("fl: bad frame header: envelope %d bytes (max %d), vector %d floats (max %d)", envLen, maxEnvelope, vecLen32, maxVectorLen)
	}
	if cap(w.env) < int(envLen) {
		w.env = make([]byte, envLen)
	}
	w.env = w.env[:envLen]
	if _, err := io.ReadFull(w.br, w.env); err != nil {
		return 0, err
	}
	if !gobMessagesFit(w.env) {
		return 0, errors.New("fl: envelope is not a whole number of gob messages")
	}
	w.in.Reset(w.env)
	if err := w.dec.Decode(envelope); err != nil {
		return 0, err
	}
	if w.in.Len() != 0 {
		return 0, fmt.Errorf("fl: %d stray bytes after the envelope", w.in.Len())
	}
	return int(vecLen32), nil
}

// recvVector reads the n-float vector block into dst[:0], growing dst at most
// growFloats beyond the floats received so far: a peer that announces a long
// vector and sends nothing commits no memory here.
func (w *wire) recvVector(dst []float64, n int) ([]float64, error) {
	dst = dst[:0]
	for len(dst) < n {
		k := min(n-len(dst), wireBuf/8)
		p, err := w.br.Peek(8 * k)
		if err != nil {
			return dst, err
		}
		if cap(dst)-len(dst) < k {
			grown := make([]float64, len(dst), min(n, len(dst)+growFloats))
			copy(grown, dst)
			dst = grown
		}
		for i := 0; i < k; i++ {
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:])))
		}
		if _, err := w.br.Discard(8 * k); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// gobMessagesFit reports whether buf is a sequence of complete gob messages.
// Every gob message announces its own length and the decoder allocates for
// it before reading, so a length that overruns the frame must be refused
// here, where it costs nothing.
func gobMessagesFit(buf []byte) bool {
	for len(buf) > 0 {
		n, width := gobUint(buf)
		if width == 0 || n > uint64(len(buf)-width) {
			return false
		}
		buf = buf[width+int(n):]
	}
	return true
}

// gobUint decodes gob's unsigned integer encoding: a value below 128 is one
// byte; otherwise the first byte is the negated count (1-8) of big-endian
// bytes that follow. width is 0 for a malformed or truncated value.
func gobUint(buf []byte) (v uint64, width int) {
	if buf[0] <= 0x7f {
		return uint64(buf[0]), 1
	}
	n := -int(int8(buf[0]))
	if n < 1 || n > 8 || len(buf) < 1+n {
		return 0, 0
	}
	for _, b := range buf[1 : 1+n] {
		v = v<<8 | uint64(b)
	}
	return v, 1 + n
}

// checkedParamCount is nn.ParamCount for an architecture that arrived from
// the network: it refuses widths and totals beyond maxVectorLen before they
// can overflow or be allocated.
func checkedParamCount(arch []int) (int, error) {
	if len(arch) < 2 {
		return 0, fmt.Errorf("fl: arch %v has no layers", arch)
	}
	n := 0
	for i, d := range arch {
		if d <= 0 || d > maxVectorLen {
			return 0, fmt.Errorf("fl: arch width %d out of range [1,%d]", d, maxVectorLen)
		}
		if i > 0 {
			fanIn := arch[i-1] + 1
			if d > (maxVectorLen-n)/fanIn { // n + fanIn*d > maxVectorLen, without overflow
				return 0, fmt.Errorf("fl: arch %v exceeds %d parameters", arch, maxVectorLen)
			}
			n += fanIn * d
		}
	}
	return n, nil
}
