package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share Op; Parent is the ID of the enclosing span (0 at the
// root of an operation).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so one loop body serves the untraced and the traced phase.
// Only the workload's one generator goroutine records.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp opens the root span of one operation and returns its span ID.
func (t *tracer) newOp(name string) int {
	if t == nil {
		return 0
	}
	t.ops++
	return t.begin(name, t.ops, 0)
}

// begin opens a span under parent (a span ID) and returns its ID.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, Op: op, ID: len(t.spans) + 1, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// child opens a span under parent inside parent's operation.
func (t *tracer) child(name string, parent int) int {
	if t == nil {
		return 0
	}
	return t.begin(name, t.spans[parent-1].Op, parent)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// unattributedFrac is the share of the wall time of the operations (root
// spans named root) that no layer span covers: 1 - the layers' summed self
// time / the operations' wall time.
func (t *tracer) unattributedFrac(root string) float64 {
	childSum := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	var self, total int64
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == root {
			self += s.End - s.Start - childSum[s.ID]
			total += s.End - s.Start
		}
	}
	return float64(self) / float64(total)
}

// Latency histograms are log-linear: histSub buckets per power of two
// from histMinMs up, each under 1.1% of its value wide, over histOctaves
// powers of two (1 µs to about 16.8 s; longer latencies land in the top
// bucket).
const (
	histSub     = 64
	histOctaves = 24
	histMinMs   = 1e-3
)

// hist is a fixed-size latency histogram. Recording into it allocates
// nothing, so the benchmark's own bookkeeping does not grow the live heap
// (and with it the collector's pacing) as a run goes on.
type hist struct {
	n uint64
	c [histSub * histOctaves]uint32
}

func (h *hist) add(ms float64) {
	i := 0
	if ms > histMinMs {
		i = min(int(math.Log2(ms/histMinMs)*histSub), len(h.c)-1)
	}
	h.c[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.c {
		h.c[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile of the recorded latencies in ms, at the
// same rank as quantile over the raw samples, placing a bucket's samples
// evenly across its log-width; NaN when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	r := q * float64(h.n-1)
	var below float64
	for i, c := range h.c {
		if c == 0 {
			continue
		}
		if r < below+float64(c) {
			f := (r - below + 0.5) / float64(c)
			return histMinMs * math.Exp2((float64(i)+f)/histSub)
		}
		below += float64(c)
	}
	return histMinMs * math.Exp2(float64(histOctaves))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// inputHash fingerprints a workload's generated input sequence, so a seed
// provably yields the same inputs on every commit.
type inputHash struct{ h hash.Hash }

func newInputHash() *inputHash { return &inputHash{h: sha256.New()} }

func (ih *inputHash) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		ih.h.Write(b[:])
	}
}

func (ih *inputHash) floats(vs []float32) {
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		ih.h.Write(b[:])
	}
}

func (ih *inputHash) sum() string { return hex.EncodeToString(ih.h.Sum(nil))[:16] }
