package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"besteffs/internal/client"
	"besteffs/internal/object"
	"besteffs/internal/store"
)

// outcome is one put's verdict as the caller sees it.
type outcome struct {
	admitted bool
	evicted  []object.ID
	err      error
}

// conn is one connection of a ladder rung: a client of a node, or the
// storage engine called directly.
type conn interface {
	put(ctx context.Context, o objSpec, payload []byte, now time.Duration) outcome
	batch(ctx context.Context, objs []objSpec, payloads [][]byte, now time.Duration) []outcome
	// get returns the payload (nil on the engine rung, which holds none)
	// and whether the object was found.
	get(ctx context.Context, id object.ID) ([]byte, bool, error)
	retries() int64
	close()
}

// clientConn drives a node through the public client.
type clientConn struct{ c *client.Client }

func (c clientConn) put(ctx context.Context, o objSpec, payload []byte, _ time.Duration) outcome {
	res, err := c.c.PutCtx(ctx, client.PutRequest{ID: o.id, Importance: o.imp, Payload: payload})
	return outcome{admitted: res.Admitted, evicted: res.Evicted, err: err}
}

func (c clientConn) batch(ctx context.Context, objs []objSpec, payloads [][]byte, _ time.Duration) []outcome {
	reqs := make([]client.PutRequest, len(objs))
	for i, o := range objs {
		reqs[i] = client.PutRequest{ID: o.id, Importance: o.imp, Payload: payloads[i]}
	}
	res, _ := c.c.PutBatch(ctx, reqs) // a transport error is also in every unanswered outcome
	out := make([]outcome, len(res))
	for i, r := range res {
		out[i] = outcome{admitted: r.Result.Admitted, evicted: r.Result.Evicted, err: r.Err}
	}
	return out
}

func (c clientConn) get(ctx context.Context, id object.ID) ([]byte, bool, error) {
	o, err := c.c.GetCtx(ctx, id)
	if errors.Is(err, client.ErrNotFound) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return o.Payload, true, nil
}

func (c clientConn) retries() int64 { return c.c.Counters()["retries"] }
func (c clientConn) close()         { c.c.Close() }

// engineConn is the bottom ladder rung: the operations go straight into
// store.Engine and its Units, with no server, payload, journal or wire.
type engineConn struct{ e *store.Engine }

func (c engineConn) put(_ context.Context, o objSpec, _ []byte, now time.Duration) outcome {
	obj, err := object.New(o.id, int64(o.size), now, o.imp)
	if err != nil {
		return outcome{err: err}
	}
	d, err := c.e.Shard(c.e.Place(obj, now)).Put(obj, now)
	out := outcome{admitted: d.Admit, err: err}
	if d.Admit {
		for _, v := range d.Victims {
			out.evicted = append(out.evicted, v.ID)
		}
	}
	return out
}

// batch splits the group by placement and admits each shard's part with
// one Unit.PutBatch, as the server's group admission does.
func (c engineConn) batch(_ context.Context, objs []objSpec, _ [][]byte, now time.Duration) []outcome {
	out := make([]outcome, len(objs))
	groups := make(map[int][]int)
	built := make([]*object.Object, len(objs))
	for i, o := range objs {
		obj, err := object.New(o.id, int64(o.size), now, o.imp)
		if err != nil {
			out[i].err = err
			continue
		}
		built[i] = obj
		sh := c.e.Place(obj, now)
		groups[sh] = append(groups[sh], i)
	}
	for sh, idx := range groups {
		part := make([]*object.Object, len(idx))
		for k, i := range idx {
			part[k] = built[i]
		}
		for k, r := range c.e.Shard(sh).PutBatch(part, now) {
			o := &out[idx[k]]
			o.admitted, o.err = r.Decision.Admit, r.Err
			if r.Decision.Admit {
				for _, v := range r.Decision.Victims {
					o.evicted = append(o.evicted, v.ID)
				}
			}
		}
	}
	return out
}

func (c engineConn) get(_ context.Context, id object.ID) ([]byte, bool, error) {
	_, err := c.e.Get(id)
	return nil, err == nil, nil
}

func (engineConn) retries() int64 { return 0 }
func (engineConn) close()         {}

// checkClass groups the run's correctness checks. The gated ok_frac is
// the share of classes in which every check passed, so one failing
// invariant moves it by a whole class, however many checks the run made.
type checkClass int

const (
	// classRequests: every put and get is answered without an error.
	classRequests checkClass = iota
	// classAnswers: reads find every live object with the bytes put, and
	// evictions name only objects that were offered.
	classAnswers
	// classInvariants: the engine is within capacity, its counters
	// balance, and its residents are exactly the objects the answers say
	// are live.
	classInvariants
	// classRestart: a crash restart after writes from one connection
	// succeeds with the same residents and drops nothing.
	classRestart
	numClasses
)

var classNames = [numClasses]string{"requests", "answers", "invariants", "restart"}

// tally is the attempted and failed checks per class.
type tally struct {
	attempted, failed [numClasses]int64
	first             [numClasses]string // first failure of each class
}

func (t *tally) add(o *tally) {
	for c := range t.attempted {
		t.attempted[c] += o.attempted[c]
		t.failed[c] += o.failed[c]
		if t.first[c] == "" {
			t.first[c] = o.first[c]
		}
	}
}

func (t *tally) totals() (attempted, failed int64) {
	for c := range t.attempted {
		attempted += t.attempted[c]
		failed += t.failed[c]
	}
	return attempted, failed
}

// okFrac is the share of classes that made at least one check and failed
// none.
func (t *tally) okFrac() float64 {
	clean := 0
	for c := range t.attempted {
		if t.attempted[c] > 0 && t.failed[c] == 0 {
			clean++
		}
	}
	return float64(clean) / float64(numClasses)
}

// report prints each failing class's count and first failure to standard
// error.
func (t *tally) report(what string) {
	for c := range t.attempted {
		if t.failed[c] > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s: %d of %d failed; first: %s\n",
				what, classNames[c], t.failed[c], t.attempted[c], t.first[c])
		}
	}
}

// ledger is what the benchmark knows about one node from the answers it
// got: every object offered, which are live, which were evicted. It checks
// every answer against that knowledge.
type ledger struct {
	seed int64

	mu      sync.Mutex
	sizes   map[object.ID]int
	history []object.ID // admitted, in order of acknowledgement
	live    map[object.ID]bool
	evicted map[object.ID]bool

	measuring         bool
	offered, rejected int64
	checks            tally
}

func newLedger(seed int64) *ledger {
	return &ledger{
		seed:    seed,
		sizes:   make(map[object.ID]int),
		live:    make(map[object.ID]bool),
		evicted: make(map[object.ID]bool),
	}
}

// checkLocked records one check of class c.
func (l *ledger) checkLocked(c checkClass, ok bool, format string, args ...any) {
	l.checks.attempted[c]++
	if ok {
		return
	}
	l.checks.failed[c]++
	if l.checks.first[c] == "" {
		l.checks.first[c] = fmt.Sprintf(format, args...)
	}
}

// check records one check of class c.
func (l *ledger) check(c checkClass, ok bool, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.checkLocked(c, ok, format, args...)
}

// offer notes objects about to be sent, before any answer can name them.
func (l *ledger) offer(objs ...objSpec) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, o := range objs {
		l.sizes[o.id] = o.size
	}
}

func (l *ledger) putResult(o objSpec, r outcome) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.checkLocked(classRequests, r.err == nil, "put %s: %v", o.id, r.err)
	if r.err != nil {
		return
	}
	if l.measuring {
		l.offered++
		if !r.admitted {
			l.rejected++
		}
	}
	for _, v := range r.evicted {
		l.checkLocked(classAnswers, l.sizes[v] != 0, "put %s evicted %s, which was never offered", o.id, v)
		delete(l.live, v)
		l.evicted[v] = true
	}
	// An eviction can be acknowledged to one connection before the
	// victim's own admission reaches the other.
	if r.admitted && !l.evicted[o.id] {
		l.live[o.id] = true
	}
	if r.admitted {
		l.history = append(l.history, o.id)
	}
}

// getResult checks the answer to a get of a live object.
func (l *ledger) getResult(o objSpec, payload []byte, found bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.checkLocked(classRequests, err == nil, "get %s: %v", o.id, err)
	if err != nil {
		return
	}
	if !found {
		l.checkLocked(classAnswers, false, "get %s: not found, but it is live", o.id)
		return
	}
	l.checkLocked(classAnswers, payload == nil || bytes.Equal(payload, payloadFor(l.seed, o.id, o.size)),
		"get %s: payload differs from what was put", o.id)
}

// liveIDs lists the objects the answers say are resident, in ID order.
func (l *ledger) liveIDs() []objSpec {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]objSpec, 0, len(l.live))
	for id := range l.live {
		out = append(out, objSpec{id: id, size: l.sizes[id]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// checkEngine runs the end-of-run invariants against the engine: it is
// within capacity, its counters balance, and its residents are exactly the
// live set.
func (l *ledger) checkEngine(e *store.Engine) {
	c := e.CountersSnapshot()
	l.check(classInvariants, c.Admitted-c.Evicted-c.Deleted == int64(e.Len()),
		"counters admitted %d - evicted %d - deleted %d != residents %d", c.Admitted, c.Evicted, c.Deleted, e.Len())
	l.checkResidents(e)
}

// checkResidents checks everything checkEngine does but the counters.
func (l *ledger) checkResidents(e *store.Engine) {
	l.check(classInvariants, e.Used() <= e.Capacity(), "engine uses %d bytes of %d", e.Used(), e.Capacity())
	live := l.liveIDs()
	ids := residentIDs(e)
	same := len(live) == len(ids)
	for i := 0; same && i < len(ids); i++ {
		same = ids[i] == live[i].id
	}
	l.check(classInvariants, same, "engine holds %d residents, the answers say %d are live", len(ids), len(live))
}

// clientSpan is one request as the client saw it.
type clientSpan struct {
	kind    opKind
	id      object.ID // the object, or a batch's first object
	start   int64     // since the recorder epoch (0 when not tracing)
	lat     time.Duration
	done    time.Duration // since the start of its phase
	steps   int
	evicted []object.ID
}

// phase is the timing of one stream of requests.
type phase struct {
	spans []clientSpan
	cpu   time.Duration // process CPU time, user and system
}

// ops counts the completed operations; a BATCH sub-request counts as one.
func (p *phase) ops() int {
	n := 0
	for _, s := range p.spans {
		n += s.steps
	}
	return n
}

// latencies returns the latencies of the spans of the given kinds, in
// microseconds.
func (p *phase) latencies(kinds ...opKind) []float64 {
	var out []float64
	for _, s := range p.spans {
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, float64(s.lat)/float64(time.Microsecond))
			}
		}
	}
	return out
}

// loader sends streams of requests over a set of connections.
type loader struct {
	w     *workload
	seed  int64
	conns []conn
	clock *simClock
	led   *ledger
	rec   *recorder // nil: client spans carry no start time
	// payloads is false on the engine rung, which stores none.
	payloads bool
}

func (d *loader) payload(o objSpec) []byte {
	if !d.payloads {
		return nil
	}
	return payloadFor(d.seed, o.id, o.size)
}

// run sends ops closed-loop: each connection sends its next request only
// after its previous one was answered.
func (d *loader) run(ctx context.Context, ops []op, conns []conn) phase {
	var next atomic.Int64
	per := make([][]clientSpan, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				sp := d.do(ctx, conns[c], ops[i])
				sp.done = time.Since(start)
				per[c] = append(per[c], sp)
			}
		}(c)
	}
	wg.Wait()
	var out phase
	for _, spans := range per {
		out.spans = append(out.spans, spans...)
	}
	return out
}

func (d *loader) do(ctx context.Context, c conn, o op) clientSpan {
	var (
		payload  []byte
		payloads [][]byte
	)
	switch o.kind {
	case opPut:
		payload = d.payload(o.obj)
		d.led.offer(o.obj)
	case opBatch:
		d.led.offer(o.batch...)
		payloads = make([][]byte, len(o.batch))
		for i, obj := range o.batch {
			payloads[i] = d.payload(obj)
		}
	}
	now := d.clock.advance(o.steps())
	sp := clientSpan{kind: o.kind, steps: o.steps()}
	if d.rec != nil {
		sp.start = d.rec.since()
	}
	t0 := time.Now()
	switch o.kind {
	case opPut:
		r := c.put(ctx, o.obj, payload, now)
		sp.lat = time.Since(t0)
		sp.id, sp.evicted = o.obj.id, r.evicted
		d.led.putResult(o.obj, r)
	case opBatch:
		rs := c.batch(ctx, o.batch, payloads, now)
		sp.lat = time.Since(t0)
		sp.id = o.batch[0].id
		for i, r := range rs {
			sp.evicted = append(sp.evicted, r.evicted...)
			d.led.putResult(o.batch[i], r)
		}
	case opGet:
		got, found, err := c.get(ctx, o.obj.id)
		sp.lat = time.Since(t0)
		sp.id = o.obj.id
		d.led.getResult(o.obj, got, found, err)
	}
	return sp
}

// prefill sends the set-up frames over one connection.
func (d *loader) prefill(ctx context.Context, frames [][]objSpec) phase {
	ops := make([]op, len(frames))
	for i, f := range frames {
		ops[i] = op{kind: opBatch, batch: f}
	}
	return d.run(ctx, ops, d.conns[:1])
}

// writers is the connections the measured writes go over: one for BATCH
// frames, as a bulk loader would, every connection for single puts.
func (d *loader) writers() []conn {
	if d.w.batch > 0 {
		return d.conns[:1]
	}
	return d.conns
}

// measure sends the measured writes over conns, counting offers and
// rejections.
func (d *loader) measure(ctx context.Context, writes []op, conns []conn) phase {
	d.led.mu.Lock()
	d.led.measuring = true
	d.led.mu.Unlock()
	cpu0 := cpuTime()
	p := d.run(ctx, writes, conns)
	p.cpu = cpuTime() - cpu0
	d.led.mu.Lock()
	d.led.measuring = false
	d.led.mu.Unlock()
	return p
}

// readBack reads every live object, rounds times over, over one
// connection; each must be found with the bytes that were put.
func (d *loader) readBack(ctx context.Context, rounds int) phase {
	live := d.led.liveIDs()
	ops := make([]op, 0, rounds*len(live))
	for r := 0; r < rounds; r++ {
		for _, o := range live {
			ops = append(ops, op{kind: opGet, obj: o})
		}
	}
	return d.run(ctx, ops, d.conns[:1])
}

func (d *loader) retries() int64 {
	var n int64
	for _, c := range d.conns {
		n += c.retries()
	}
	return n
}

func (d *loader) close() {
	for _, c := range d.conns {
		c.close()
	}
}

// dialAll opens n client connections to a node.
func dialAll(nd *node, n int) ([]conn, error) {
	out := make([]conn, 0, n)
	for i := 0; i < n; i++ {
		c, err := nd.dial()
		if err != nil {
			for _, o := range out {
				o.close()
			}
			return nil, err
		}
		out = append(out, clientConn{c})
	}
	return out, nil
}
