package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around a public call (or by a benchmark-side decorator inside one). Spans
// of one operation share req; parent is the id of the span that caused this
// one, 0 for a root. Times are nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in a preallocated slice claimed with one atomic add, so
// concurrent recorders never contend on a lock; spans beyond capacity are
// counted and dropped. A nil tracer records nothing — the untraced run pays
// one nil check per span site.
type tracer struct {
	t0      time.Time
	spans   []span
	next    atomic.Int32
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, capacity)}
}

// open starts a span and returns its id (0 when not recorded).
func (t *tracer) open(name string, req int64, parent int32, start time.Time) int32 {
	if t == nil {
		return 0
	}
	id := t.next.Add(1)
	if int(id) > len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	t.spans[id-1] = span{Name: name, Req: req, ID: id, Parent: parent, Start: int64(start.Sub(t.t0))}
	return id
}

func (t *tracer) close(id int32, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(end.Sub(t.t0))
}

// add records a span whose start and end are both known.
func (t *tracer) add(name string, req int64, parent int32, start, end time.Time) int32 {
	id := t.open(name, req, parent, start)
	t.close(id, end)
	return id
}

// recorded returns the spans recorded so far.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval its direct children cover. Children may overlap each other (a
// fan-out) and may overrun the parent; the covered part is the union of the
// child intervals clipped to the parent.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// sumByName totals span durations per name.
func sumByName(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

// maxSpansWritten caps the span file: a traced serving run records one span
// per request, and a multi-hundred-megabyte file helps nobody. The first
// spans are kept — they are whole operations, in order.
const maxSpansWritten = 200_000

// write stores the spans as JSON lines under dir. It is called once, when the
// benchmark ends.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spans := t.recorded()
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
