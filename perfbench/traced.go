package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/store"
)

// rungRun is what one ladder rung measured.
type rungRun struct {
	prefill, measured, reads phase
}

// writeP50 is the rung's write p50, taken as write_p50_us is: the median
// over windows.
func (r rungRun) writeP50() float64 { return r.measured.windowP(50, opPut, opBatch) }

// engineRung replays the stream straight into a store.Engine.
func (b *bench) engineRung(ctx context.Context, st stream) (rungRun, error) {
	eng, err := store.NewEngine(store.EngineConfig{Shards: b.w.shards, Capacity: b.w.capacity,
		Policy: policy.TemporalImportance{}}, nil)
	if err != nil {
		return rungRun{}, err
	}
	conns := make([]conn, b.w.conns)
	for i := range conns {
		conns[i] = engineConn{eng}
	}
	d := &loader{w: b.w, seed: b.seed, conns: conns, clock: &simClock{step: b.w.step}, led: newLedger(b.seed)}
	var r rungRun
	r.prefill = d.prefill(ctx, st.prefill)
	r.measured = d.measure(ctx, st.writes, d.writers())
	d.led.checkEngine(eng)
	r.reads = d.readBack(ctx, 1)
	b.tally("engine rung", d.led)
	return r, nil
}

// serverRung replays the stream into an undecorated node over tr.
func (b *bench) serverRung(ctx context.Context, st stream, tr transport) (rungRun, int64, error) {
	s, err := b.setUp(ctx, b.w, st, tr, nil)
	if err != nil {
		return rungRun{}, 0, err
	}
	defer removeDir(s.nd.dir)
	r := rungRun{prefill: s.prefill}
	r.measured = s.drv.measure(ctx, st.writes, s.drv.writers())
	s.drv.led.checkEngine(s.nd.srv.Engine())
	r.reads = s.drv.readBack(ctx, 1)
	retries := s.drv.retries()
	b.tally(map[transport]string{overPipe: "pipe rung", overTCP: "loopback rung"}[tr], s.drv.led)
	return r, retries, s.tearDown()
}

// durableFigures are the blob, journal and recovery figures of a durable
// node.
type durableFigures struct {
	blobSpans          []span // blob operations after the prefill
	blobShare          float64
	walBytes, walNanos int64
	puts               int64 // every put offered while the WAL was wrapped
	recoverS           float64
	records            int
	diskRatio          float64
}

// durableRung replays the prefill and the first b.w.durableWrites writes
// of the stream, from one connection, into a node like the workload's but
// with a file store and a WAL, decorated like the traced node: the
// "durable loopback" top rung of the ladder. It reads every live object
// back and measures the node's disk footprint, then runs timed crash
// restarts, and returns the blob, journal and recovery figures. Every run makes it, for its checks.
func (b *bench) durableRung(ctx context.Context, st stream, timed int) (durableFigures, error) {
	var f durableFigures
	w := *b.w
	w.durable = true
	st.writes = st.writes[:min(len(st.writes), w.durableWrites)]
	rec := newRecorder()
	s, err := b.setUp(ctx, &w, st, overTCP, &seams{rec: rec, blobFault: b.fault})
	if err != nil {
		return f, err
	}
	defer removeDir(s.nd.dir)
	defer b.tally("durable rung", s.drv.led)
	rec.take()
	m := s.drv.measure(ctx, st.writes, s.drv.conns[:1])
	s.drv.led.checkEngine(s.nd.srv.Engine())
	measured := rec.take()
	f.blobShare = layerStats(m, st.writes, measured).blobShare
	s.drv.readBack(ctx, 1)
	f.blobSpans = append(measured, rec.take()...)
	disk, err := diskBytes(s.nd.dir)
	if err != nil {
		return f, err
	}
	f.diskRatio = float64(disk) / float64(s.nd.srv.Engine().Used())
	if f.records, err = walRecords(&w, s.nd.dir); err != nil {
		return f, err
	}
	f.walBytes, f.walNanos = rec.walBytes.Load(), rec.walNanos.Load()
	for _, fr := range st.prefill {
		f.puts += int64(len(fr))
	}
	for _, o := range st.writes {
		f.puts += int64(o.steps())
	}
	times, err := restart(s, timed)
	f.recoverS = median(times)
	return f, err
}

// traced is the per-layer run: the ladder rungs, then the traced node.
func (b *bench) traced(ctx context.Context) (*result, error) {
	// Every rung replays the first half of the measured writes, so the five
	// rungs together stay well inside the time a run may take.
	st := b.stream()
	st.writes = st.writes[:len(st.writes)/2]
	eng, err := b.engineRung(ctx, st)
	if err != nil {
		return nil, err
	}
	pipe, pipeRetries, err := b.serverRung(ctx, st, overPipe)
	if err != nil {
		return nil, err
	}
	// The undecorated loopback rung is also the base of the tracing
	// overhead.
	loop, loopRetries, err := b.serverRung(ctx, st, overTCP)
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	s, err := b.setUp(ctx, b.w, st, overTCP, &seams{rec: rec})
	if err != nil {
		return nil, err
	}
	prefillSpans := rec.take()
	e := s.nd.srv.Engine()
	c0 := e.CountersSnapshot()
	m := s.drv.measure(ctx, st.writes, s.drv.writers())
	c1 := e.CountersSnapshot()
	measuredSpans := rec.take()
	s.drv.led.checkEngine(e)
	atNs := importanceCost(e, s.nd.clock.now())
	reads := s.drv.readBack(ctx, 1)
	readSpans := rec.take()
	retries := pipeRetries + loopRetries + s.drv.retries()
	if err := s.tearDown(); err != nil {
		return nil, err
	}
	b.tally("traced node", s.drv.led)
	dur, err := b.durableRung(ctx, st, recoveries)
	if err != nil {
		return nil, err
	}

	all := append(append(append([]span(nil), prefillSpans...), measuredSpans...), readSpans...)
	if err := b.saveSpans(m, reads, all); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
	}

	lay := layerStats(m, st.writes, measuredSpans)
	batchPlans := spansOf(all, "policy.batch_plan")
	blobs := dur.blobSpans
	tracedP50 := m.windowP(50, opPut, opBatch)
	loopP50 := loop.writeP50()
	evictedPerPut := ratio(c1.Evicted-c0.Evicted, (c1.Admitted-c0.Admitted)+(c1.Rejected-c0.Rejected))

	us := func(v float64) metric { return metric{v, "us"} }
	return b.result(map[string]metric{
		"importance.at_ns":             {atNs, "ns"},
		"policy.plan_us_p50":           us(percentile(lay.planUs, 50)),
		"policy.plan_us_p99":           us(percentile(lay.planUs, 99)),
		"policy.residents_per_plan":    {lay.residentsPerPlan, "count"},
		"policy.victims_per_admit":     {lay.victimsPerAdmit, "count"},
		"policy.plan_share":            {lay.planShare, "frac"},
		"policy.batch_plan_us_p50":     us(percentile(durationsUs(batchPlans), 50)),
		"store.put_us_p50":             us(eng.writeP50()),
		"store.put_us_p99":             us(percentile(eng.measured.latencies(opPut, opBatch), 99)),
		"store.evicted_per_put":        {evictedPerPut, "count"},
		"server.pipe_put_us_p50":       us(pipe.writeP50()),
		"server.pipe_get_us_p50":       us(percentile(pipe.reads.latencies(opGet), 50)),
		"server.pipe_batch_us_p50":     us(percentile(append(pipe.prefill.latencies(opBatch), pipe.measured.latencies(opBatch)...), 50)),
		"net.loopback_us_p50":          us(loopP50 - pipe.writeP50()),
		"blob.put_us_p50":              us(percentile(durationsUs(spansOf(blobs, "blob.put")), 50)),
		"blob.put_us_p99":              us(percentile(durationsUs(spansOf(blobs, "blob.put")), 99)),
		"blob.get_us_p50":              us(percentile(durationsUs(spansOf(blobs, "blob.get")), 50)),
		"blob.delete_us_p50":           us(percentile(durationsUs(spansOf(blobs, "blob.delete")), 50)),
		"blob.share":                   {dur.blobShare, "frac"},
		"journal.bytes_per_put":        {float64(dur.walBytes) / float64(dur.puts), "bytes"},
		"journal.write_us_per_put":     us(float64(dur.walNanos) / 1e3 / float64(dur.puts)),
		"journal.replay_us_per_record": us(dur.recoverS * 1e6 / float64(max(dur.records, 1))),
		"recover_s":                    {dur.recoverS, "s"},
		"disk_bytes_per_live_byte":     {dur.diskRatio, "ratio"},
		"client.retries":               {float64(retries), "count"},
		"trace.overhead_frac":          {tracedP50/loopP50 - 1, "frac"},
		"ops_per_s":                    {loop.measured.windowRate(), "1/s"},
		"write_p90_us":                 us(loop.measured.windowP(90, opPut, opBatch)),
		"write_p99_us":                 us(percentile(loop.measured.latencies(opPut, opBatch), 99)),
		"read_p50_us":                  us(percentile(loop.reads.latencies(opGet), 50)),
		"cpu_us_per_op":                us(float64(loop.measured.cpu) / 1e3 / float64(loop.measured.ops())),
	}), nil
}

// importanceCost times ImportanceAt over the resident set, in ns per call.
func importanceCost(e *store.Engine, now time.Duration) float64 {
	objs := e.Residents()
	if len(objs) == 0 {
		return 0
	}
	var sink float64
	calls := 0
	start := time.Now()
	for time.Since(start) < 20*time.Millisecond {
		for _, o := range objs {
			sink += o.ImportanceAt(now)
		}
		calls += len(objs)
	}
	took := time.Since(start)
	// Using sink keeps the compiler from dropping the timed calls.
	if sink < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: negative importance")
	}
	return float64(took.Nanoseconds()) / float64(calls)
}

func spansOf(spans []span, layer string) []span {
	var out []span
	for _, s := range spans {
		if s.Layer == layer {
			out = append(out, s)
		}
	}
	return out
}

func durationsUs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / float64(time.Microsecond)
	}
	return out
}

// layers is what the seam spans of the measured phase add up to.
type layers struct {
	planUs                            []float64
	residentsPerPlan, victimsPerAdmit float64
	planShare, blobShare              float64
}

// layerStats joins the measured phase's seam spans to the client requests
// that caused them: a plan or a blob put/get by its object ID, a blob
// delete by the request whose answer listed it as evicted.
func layerStats(m phase, ops []op, spans []span) layers {
	cause := make(map[object.ID]bool)
	for _, o := range ops {
		cause[o.obj.id] = true
		for _, b := range o.batch {
			cause[b.id] = true
		}
	}
	var writeTime, allTime float64
	for _, c := range m.spans {
		cause[c.id] = true
		for _, v := range c.evicted {
			cause[v] = true
		}
		allTime += float64(c.lat)
		if c.kind != opGet {
			writeTime += float64(c.lat)
		}
	}
	var (
		l                  layers
		plans, residents   int
		admitted, victims  int
		planTime, blobTime float64
	)
	for _, s := range spans {
		if !cause[s.ID] {
			continue
		}
		switch s.Layer {
		case "policy.plan", "policy.batch_plan":
			l.planUs = append(l.planUs, float64(s.dur())/float64(time.Microsecond))
			plans++
			residents += s.Residents
			admitted += s.Admitted
			victims += s.Victims
			planTime += float64(s.dur())
		case "blob.put", "blob.get", "blob.delete":
			blobTime += float64(s.dur())
		}
	}
	l.residentsPerPlan = ratio(int64(residents), int64(plans))
	l.victimsPerAdmit = ratio(int64(victims), int64(admitted))
	if writeTime > 0 {
		l.planShare = planTime / writeTime
	}
	if allTime > 0 {
		l.blobShare = blobTime / allTime
	}
	return l
}

// saveSpans writes the traced node's client and seam spans as JSON lines
// under the work directory. A seam span's parent is the client request it
// joins.
func (b *bench) saveSpans(m, reads phase, seam []span) error {
	dir := filepath.Join(b.work, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	parent := make(map[object.ID]string)
	var out []span
	for _, p := range []phase{m, reads} {
		for _, c := range p.spans {
			key := fmt.Sprintf("client.%s/%s", c.kind, c.id)
			if _, dup := parent[c.id]; !dup {
				parent[c.id] = key
			}
			for _, v := range c.evicted {
				parent[v] = key
			}
			out = append(out, span{Layer: "client." + c.kind.String(), ID: c.id,
				Start: c.start, End: c.start + int64(c.lat)})
		}
	}
	for _, s := range seam {
		s.Parent = parent[s.ID]
		out = append(out, s)
	}
	return writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed)), out)
}
