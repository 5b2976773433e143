package main

import (
	"bufio"
	"encoding/json"
	"hash/fnv"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/object"
	"besteffs/internal/policy"
)

// fullStore is a blob store with every optional interface the node
// type-asserts. Decorators wrap only such stores, so wrapping never hides
// a capability from the node.
type fullStore interface {
	blob.Store
	blob.Verifier
	blob.Summer
}

// seams decorates a node's public seams: tracing decorators when rec is
// set, a fault-injecting blob decorator when blobFault is set.
type seams struct {
	rec       *recorder
	blobFault func(fullStore) fullStore
}

// span is one timed call across a layer boundary. id is the object the
// call was about, which is also the key of the client request that caused
// it, so spans join their request without tracing inside the node.
type span struct {
	Layer  string    `json:"layer"`
	ID     object.ID `json:"id"`
	Parent string    `json:"parent,omitempty"`
	Start  int64     `json:"start_ns"`
	End    int64     `json:"end_ns"`
	// Plans only: the residents the plan ranked, the objects it planned,
	// how many it admitted and the victims it chose for them.
	Residents int `json:"residents,omitempty"`
	Objects   int `json:"objects,omitempty"`
	Admitted  int `json:"admitted,omitempty"`
	Victims   int `json:"victims,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span

	walBytes atomic.Int64
	walNanos atomic.Int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (r *recorder) since() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and starts a new list.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = make([]span, 0, 1<<16)
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPolicy times every plan. It implements policy.BatchPlanner by
// handing the group to policy.PlanGroup over the inner policy, which picks
// the inner PlanBatch or the sequential fallback exactly as the store would
// for the bare policy.
type tracedPolicy struct {
	inner policy.Policy
	rec   *recorder
}

var _ policy.BatchPlanner = (*tracedPolicy)(nil)

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Plan(view policy.View, incoming *object.Object, now time.Duration) policy.Decision {
	start := p.rec.since()
	d := p.inner.Plan(view, incoming, now)
	end := p.rec.since()
	s := span{Layer: "policy.plan", ID: incoming.ID, Start: start, End: end,
		Residents: len(view.Residents), Objects: 1}
	if d.Admit {
		s.Admitted, s.Victims = 1, len(d.Victims)
	}
	p.rec.add(s)
	return d
}

func (p *tracedPolicy) PlanBatch(view policy.View, incoming []*object.Object, now time.Duration) []policy.Decision {
	start := p.rec.since()
	ds := policy.PlanGroup(p.inner, view, incoming, now)
	s := span{Layer: "policy.batch_plan", Start: start, End: p.rec.since(), Residents: len(view.Residents)}
	for i, o := range incoming {
		if o == nil {
			continue
		}
		if s.ID == "" {
			s.ID = o.ID
		}
		s.Objects++
		if ds[i].Admit {
			s.Admitted++
			s.Victims += len(ds[i].Victims)
		}
	}
	p.rec.add(s)
	return ds
}

// tracedBlobs times every payload operation.
type tracedBlobs struct {
	inner fullStore
	rec   *recorder
}

func (b *tracedBlobs) time(layer string, id object.ID, start int64) {
	b.rec.add(span{Layer: layer, ID: id, Start: start, End: b.rec.since()})
}

func (b *tracedBlobs) Put(id object.ID, payload []byte) error {
	start := b.rec.since()
	err := b.inner.Put(id, payload)
	b.time("blob.put", id, start)
	return err
}

func (b *tracedBlobs) Get(id object.ID) ([]byte, error) {
	start := b.rec.since()
	p, err := b.inner.Get(id)
	b.time("blob.get", id, start)
	return p, err
}

func (b *tracedBlobs) Delete(id object.ID) error {
	start := b.rec.since()
	err := b.inner.Delete(id)
	b.time("blob.delete", id, start)
	return err
}

func (b *tracedBlobs) Verify(id object.ID) error        { return b.inner.Verify(id) }
func (b *tracedBlobs) Sum(id object.ID) (uint32, error) { return b.inner.Sum(id) }

// walWriter is the journal.WithWriteWrapper hook: it counts the bytes and
// the time of every write the WAL makes to a segment.
func (r *recorder) walWriter(_ uint64, w io.Writer) io.Writer { return &countingWriter{w: w, rec: r} }

type countingWriter struct {
	w   io.Writer
	rec *recorder
}

func (c *countingWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.w.Write(p)
	c.rec.walNanos.Add(int64(time.Since(start)))
	c.rec.walBytes.Add(int64(n))
	return n, err
}

// faulty reports whether id is one of the objects a fault decorator
// damages: one in eight, chosen by hash so every run damages the same ones.
func faulty(id object.ID) bool {
	h := fnv.New32a()
	h.Write([]byte(id))
	return h.Sum32()%8 == 0
}

// flipByte stores a damaged copy of every faulty object's payload, with
// one byte flipped. The store checksums what it is given, so only the
// benchmark's own byte comparison can notice.
func flipByte(inner fullStore) fullStore { return &flipStore{fullStore: inner} }

type flipStore struct{ fullStore }

func (s *flipStore) Put(id object.ID, payload []byte) error {
	if faulty(id) {
		bad := append([]byte(nil), payload...)
		bad[len(bad)/2] ^= 0x40
		payload = bad
	}
	return s.fullStore.Put(id, payload)
}

// dropBlob acknowledges every faulty object's payload without storing it.
func dropBlob(inner fullStore) fullStore { return &dropStore{fullStore: inner} }

type dropStore struct{ fullStore }

func (s *dropStore) Put(id object.ID, payload []byte) error {
	if faulty(id) {
		return nil
	}
	return s.fullStore.Put(id, payload)
}
