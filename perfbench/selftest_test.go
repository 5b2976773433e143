package main

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"besteffs/internal/object"
)

// toy shrinks a workload to test size: a sixteenth of the capacity and
// one connection, so verdicts are deterministic.
func toy(w *workload) *workload {
	c := *w
	c.capacity /= 16
	c.conns = 1
	c.durableWrites = 32
	return &c
}

func toyBench(t *testing.T, w *workload) *bench {
	return &bench{w: toy(w), seed: 7, seconds: 1, work: t.TempDir()}
}

// failures returns the failed checks so far and the first failure.
func (l *ledger) failures() (int64, string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, failed := l.checks.totals()
	for c := range l.checks.first {
		if l.checks.first[c] != "" {
			return failed, l.checks.first[c]
		}
	}
	return failed, ""
}

// verdicts is what a node answered to one stream: the admitted objects in
// order and every eviction list, in order.
type verdicts struct {
	admitted []object.ID
	evicted  [][]object.ID
	rejected int64
}

func runVerdicts(t *testing.T, b *bench, sm *seams) verdicts {
	t.Helper()
	ctx := context.Background()
	st := b.stream()
	s, err := b.setUp(ctx, b.w, st, overTCP, sm)
	if err != nil {
		t.Fatal(err)
	}
	defer removeDir(s.nd.dir)
	m := s.drv.measure(ctx, st.writes, s.drv.writers())
	if err := s.tearDown(); err != nil {
		t.Fatal(err)
	}
	var v verdicts
	for _, sp := range m.spans {
		v.evicted = append(v.evicted, sp.evicted)
	}
	v.admitted = s.drv.led.history
	v.rejected = s.drv.led.rejected
	if failed, first := s.drv.led.failures(); failed > 0 {
		t.Fatalf("%d checks failed; first: %s", failed, first)
	}
	return v
}

// TestDecoratedMatchesBare shows the seam decorators are behaviour-neutral:
// a decorated node and a bare node answer the same seeded stream with the
// same verdicts and the same victims, in memory and on disk.
func TestDecoratedMatchesBare(t *testing.T) {
	for _, w := range workloads {
		for _, durable := range []bool{false, true} {
			durable := durable
			t.Run(fmt.Sprintf("%s/durable=%v", w.name, durable), func(t *testing.T) {
				decoratedMatchesBare(t, w, durable)
			})
		}
	}
}

func decoratedMatchesBare(t *testing.T, w *workload, durable bool) {
	mk := func() *bench {
		b := toyBench(t, w)
		b.w.durable = durable
		return b
	}
	bare := runVerdicts(t, mk(), nil)
	rec := newRecorder()
	traced := runVerdicts(t, mk(), &seams{rec: rec})
	if len(bare.admitted) == 0 || bare.rejected == 0 {
		t.Fatalf("stream too tame: %d admitted, %d rejected", len(bare.admitted), bare.rejected)
	}
	if !reflect.DeepEqual(bare, traced) {
		t.Fatalf("decorated node answered differently: %d/%d admitted, %d/%d rejected",
			len(traced.admitted), len(bare.admitted), traced.rejected, bare.rejected)
	}
	plans := len(spansOf(rec.spans, "policy.plan")) + len(spansOf(rec.spans, "policy.batch_plan"))
	if plans == 0 || len(spansOf(rec.spans, "blob.put")) == 0 {
		t.Fatalf("decorators recorded %d plans and no blob puts", plans)
	}
	if durable && rec.walBytes.Load() == 0 {
		t.Fatal("the WAL writer saw no bytes")
	}
}

// TestChecksCatchDamage shows the run's checks are live: an undamaged toy
// run fails none, and a blob store that flips a payload byte or drops a
// payload makes some fail.
func TestChecksCatchDamage(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		for _, c := range []struct {
			name  string
			fault func(fullStore) fullStore
			fails bool
		}{
			{"intact", nil, false},
			{"flip-byte", flipByte, true},
			{"drop-blob", dropBlob, true},
		} {
			t.Run(w.name+"/"+c.name, func(t *testing.T) {
				b := toyBench(t, w)
				b.fault = c.fault
				res, err := b.endToEnd(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Failed > 0; got != c.fails {
					t.Fatalf("failed %d of %d; want failures: %v", res.Failed, res.Attempted, c.fails)
				}
				// A failing class costs ok_frac a whole class, far more
				// than its bound.
				if frac := res.Metrics["ok_frac"].Value; (frac <= 0.75) != c.fails || (frac < 1) != c.fails {
					t.Fatalf("ok_frac %v disagrees with %d failures", frac, res.Failed)
				}
			})
		}
	}
}

// TestOkFracCountsClasses shows ok_frac is taken over check classes: one
// failed restart among many passing checks costs a whole class, and a
// class that made no check is not clean.
func TestOkFracCountsClasses(t *testing.T) {
	var all tally
	for c := range all.attempted {
		all.attempted[c] = 100000
	}
	if got := all.okFrac(); got != 1 {
		t.Fatalf("clean run: ok_frac %v", got)
	}
	for _, c := range []struct {
		name  string
		class checkClass
		want  float64
	}{
		{"one failed restart", classRestart, 0.75},
		{"one wrong payload", classAnswers, 0.75},
	} {
		got := all
		got.failed[c.class] = 1
		if f := got.okFrac(); f != c.want {
			t.Errorf("%s: ok_frac %v, want %v", c.name, f, c.want)
		}
		if _, failed := got.totals(); failed != 1 {
			t.Errorf("%s: %d failed, want 1", c.name, failed)
		}
	}
	none := all
	none.attempted[classRestart] = 0
	if f := none.okFrac(); f != 0.75 {
		t.Errorf("restart class never checked: ok_frac %v, want 0.75", f)
	}
}
