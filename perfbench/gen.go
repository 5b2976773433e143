package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// objSpec is one object the generator offers: its ID, payload size and
// importance annotation. Payload bytes are never stored by the benchmark;
// payloadFor derives them again from the run seed and the ID.
type objSpec struct {
	id   object.ID
	size int
	imp  importance.Function
}

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opBatch
)

func (k opKind) String() string {
	return [...]string{"put", "get", "batch"}[k]
}

// op is one request of the stream.
type op struct {
	kind  opKind
	obj   objSpec   // opPut, opGet
	batch []objSpec // opBatch
}

// steps is how many simulated clock steps the op advances: one per object
// offered or read, so a BATCH sub-request counts like a single put.
func (o op) steps() int {
	if o.kind == opBatch {
		return len(o.batch)
	}
	return 1
}

// stream is a whole run's input: the prefill frames that fill the node past
// capacity during set-up, and the measured writes.
type stream struct {
	prefill [][]objSpec
	writes  []op
}

// genStream builds the run's stream from the seed alone. measured is the
// number of measured writes (a BATCH frame counts as one here).
func genStream(w *workload, seed int64, measured int) stream {
	g := &generator{w: w, rng: rand.New(rand.NewSource(seed))}
	var s stream
	target := int64(w.prefill * float64(w.capacity))
	for offered := int64(0); offered < target; {
		frame := make([]objSpec, 0, prefillFrame)
		for len(frame) < prefillFrame && offered < target {
			o := g.object()
			offered += int64(o.size)
			frame = append(frame, o)
		}
		s.prefill = append(s.prefill, frame)
	}
	s.writes = make([]op, measured)
	for i := range s.writes {
		if w.batch == 0 {
			s.writes[i] = op{kind: opPut, obj: g.object()}
			continue
		}
		frame := make([]objSpec, w.batch)
		for k := range frame {
			frame[k] = g.object()
		}
		s.writes[i] = op{kind: opBatch, batch: frame}
	}
	return s
}

// prefillFrame is the number of objects per set-up BATCH frame.
const prefillFrame = 64

// generator draws objects. Importance kinds are dealt from a shuffled deck
// of importanceDeck, so every run offers the same mix in the same
// proportions and only the order and parameters vary with the seed.
type generator struct {
	w    *workload
	rng  *rand.Rand
	n    int
	deck []int
}

// importanceDeck is the mix per 16 objects: 4 linear, 4 two-step,
// 3 exponential, 3 constant and 2 Dirac (zero importance).
var importanceDeck = []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4}

func (g *generator) object() objSpec {
	if len(g.deck) == 0 {
		g.deck = append(g.deck, importanceDeck...)
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	kind := g.deck[0]
	g.deck = g.deck[1:]
	g.n++
	size := g.w.minSize + g.rng.Intn(g.w.maxSize-g.w.minSize+1)
	return objSpec{
		id:   object.ID(fmt.Sprintf("%s/%07d", g.w.name, g.n)),
		size: size,
		imp:  g.importance(kind),
	}
}

func (g *generator) uniform(lo, hi float64) float64 { return lo + g.rng.Float64()*(hi-lo) }

func (g *generator) days(lo, hi float64) time.Duration {
	return time.Duration(g.uniform(lo, hi) * float64(24*time.Hour))
}

func (g *generator) importance(kind int) importance.Function {
	var (
		f   importance.Function
		err error
	)
	switch kind {
	case 0:
		f, err = importance.NewLinear(g.uniform(0.3, 1), g.days(10, 60))
	case 1:
		f, err = importance.NewTwoStep(g.uniform(0.5, 0.95), g.days(2, 14), g.days(7, 30))
	case 2:
		f, err = importance.NewExponential(g.uniform(0.4, 1), g.days(2, 10), g.days(30, 90))
	case 3:
		f, err = importance.NewConstant(g.uniform(0.05, 0.4))
	default:
		f = importance.Dirac{}
	}
	if err != nil {
		// The parameter ranges above are all valid; reaching this is a bug.
		panic(err)
	}
	return f
}

// payloadFor derives an object's bytes from the run seed and its ID, so a
// read can be checked without keeping a copy of what was written.
func payloadFor(seed int64, id object.ID, size int) []byte {
	h := fnv.New64a()
	h.Write([]byte(id))
	x := h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15
	if x == 0 {
		x = 1
	}
	buf := make([]byte, size)
	for i := 0; i < size; i += 8 {
		// xorshift64*
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		v := x * 2685821657736338717
		for k := 0; k < 8 && i+k < size; k++ {
			buf[i+k] = byte(v >> (8 * k))
		}
	}
	return buf
}
