// Command perfbench is the repository benchmark. It drives an in-process
// besteffsd-equivalent node (server.New + Serve on loopback TCP) with one
// of two seeded, closed-loop workloads, checks every answer, and prints
// one JSON result line:
//
//	perfbench --workload admit-full --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics instead: it replays the same stream down a ladder of
// rungs (the storage engine called directly, the server over net.Pipe,
// the server over loopback TCP) and once more over loopback with timing
// decorators on the node's public seams (policy, blob store, WAL writer).
// DESIGN.md records the design: why each workload, and which layer metric
// should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"besteffs/internal/object"
)

// workload is one named input of the benchmark.
type workload struct {
	name             string
	durable          bool
	shards           int
	capacity         int64
	minSize, maxSize int
	conns            int
	// batch is the objects per measured BATCH frame (0: single requests).
	batch int
	// durableWrites is how many measured writes the durable rung replays
	// from one connection after the prefill.
	durableWrites int
	// prefill is the bytes offered during set-up, as a multiple of capacity.
	prefill float64
	// step is the simulated time each object offered or read advances the
	// node clock by. It sets how many arrivals an object's importance
	// outlives, and so how high the importance boundary of the full node
	// climbs.
	step time.Duration
	// opsPerSecond is the measured requests sent per --seconds. The
	// stream length depends on --seconds alone, never on how fast the
	// build under test is, so every build writes the same history.
	opsPerSecond int
}

const (
	// setups is how many times a run starts and prefills a node; setup_s
	// is the median.
	setups = 11
	// recoveries is how many restarts of the durable rung the traced run
	// times for recover_s. The untraced run restarts once, for the check.
	recoveries = 5
)

// workloads are the benchmark's inputs; DESIGN.md says why these.
var workloads = []*workload{
	{
		name: "admit-full", shards: 1, capacity: 2 << 20,
		minSize: 128, maxSize: 384, conns: 2, prefill: 1.5,
		opsPerSecond: 400, step: time.Minute,
		durableWrites: 1000,
	},
	{
		name: "batch-ingest", shards: 2, capacity: 4 << 20,
		minSize: 768, maxSize: 1280, conns: 2, batch: 64, prefill: 1.25,
		opsPerSecond: 200, step: 4 * time.Minute,
		durableWrites: 100,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: admit-full or batch-ingest")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "run length; the stream has seconds x the workload's rate requests")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics of a traced run instead of the end-to-end ones")
	work := flag.String("workdir", ".bench_build", "directory for data directories and span files")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload admit-full|batch-ingest, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, work: *work}
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = b.traced(context.Background())
	} else {
		res, err = b.endToEnd(context.Background())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench is one run.
type bench struct {
	w       *workload
	seed    int64
	seconds int
	work    string

	// fault, when set, wraps the node's blob store in a fault injector
	// (the harness self-test uses it to prove the checks are live).
	fault func(fullStore) fullStore

	dirs   int
	checks tally
}

// tally adds a ledger's checks to the run's.
func (b *bench) tally(what string, l *ledger) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.checks.report(what)
	b.checks.add(&l.checks)
}

func (b *bench) result(metrics map[string]metric) *result {
	attempted, failed := b.checks.totals()
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
}

// dataDir makes a fresh data directory for a durable node ("" otherwise).
func (b *bench) dataDir(w *workload) (string, error) {
	if !w.durable {
		return "", nil
	}
	b.dirs++
	dir := filepath.Join(b.work, "data", fmt.Sprintf("%s-%d-%d-%d", w.name, b.seed, os.Getpid(), b.dirs))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func removeDir(dir string) {
	if dir != "" {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: remove data dir:", err)
		}
	}
}

func (b *bench) stream() stream { return genStream(b.w, b.seed, b.seconds*b.w.opsPerSecond) }

// faults returns the seams of an untraced node: none, or the fault
// injector.
func (b *bench) faults() *seams {
	if b.fault == nil {
		return nil
	}
	return &seams{blobFault: b.fault}
}

// served is a node with its clients and the ledger of what it answered.
type served struct {
	nd      *node
	drv     *loader
	prefill phase
}

// setUp starts a node for w and prefills it over one connection.
func (b *bench) setUp(ctx context.Context, w *workload, st stream, tr transport, sm *seams) (*served, error) {
	dir, err := b.dataDir(w)
	if err != nil {
		return nil, err
	}
	nd, err := startNode(w, tr, dir, sm)
	if err != nil {
		removeDir(dir)
		return nil, err
	}
	conns, err := dialAll(nd, w.conns)
	if err != nil {
		nd.stop()
		removeDir(dir)
		return nil, err
	}
	s := &served{nd: nd, drv: &loader{w: w, seed: b.seed, conns: conns, clock: nd.clock,
		led: newLedger(b.seed), payloads: true}}
	if sm != nil {
		s.drv.rec = sm.rec
	}
	s.prefill = s.drv.prefill(ctx, st.prefill)
	return s, nil
}

// tearDown closes the clients and stops the node.
func (s *served) tearDown() error {
	s.drv.close()
	return s.nd.stop()
}

// restart stops a durable node without a final checkpoint, as a crash
// after its last answer would, and restarts it timed times on the same
// directory; each restart is timed. Every restart must succeed and bring
// back exactly the residents of before, dropping nothing; a failed restart
// is a failed check, not an aborted run. It returns the restart times.
func restart(s *served, timed int) (times []float64, err error) {
	w, led, dir := s.nd.w, s.drv.led, s.nd.dir
	before := residentIDs(s.nd.srv.Engine())
	if err := s.tearDown(); err != nil {
		return nil, err
	}
	for r := 0; r < timed; r++ {
		rn, took := recoverChecked(w, led, dir, before, fmt.Sprintf("restart %d", r))
		times = append(times, took.Seconds())
		if rn == nil {
			continue
		}
		if err := rn.close(); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// recoverChecked restarts a node on dir and checks the restart: it must
// succeed, bring back exactly the residents of before,
// and drop nothing. It returns the restarted node, nil when the restart
// failed, and how long RestoreDir took, failed or not.
func recoverChecked(w *workload, led *ledger, dir string, before []object.ID, what string) (*recovered, time.Duration) {
	rn, took, err := recoverNode(w, dir)
	led.check(classRestart, err == nil, "%s: %v", what, err)
	if err != nil {
		return nil, took
	}
	after := residentIDs(rn.srv.Engine())
	same := len(after) == len(before)
	for i := 0; same && i < len(after); i++ {
		same = after[i] == before[i]
	}
	led.check(classRestart, same, "%s: %d residents, %d before shutdown", what, len(after), len(before))
	led.check(classRestart, rn.stats.DroppedNoPayload == 0, "%s dropped %d residents without payload", what, rn.stats.DroppedNoPayload)
	led.check(classRestart, rn.stats.DroppedOrphanBlobs == 0, "%s deleted %d orphan blobs", what, rn.stats.DroppedOrphanBlobs)
	return rn, took
}

// endToEnd is the untraced run: it sets up setups nodes, keeps the last,
// measures the stream on it, checks it, and reads every live object back.
// The durable rung's crash checks follow.
func (b *bench) endToEnd(ctx context.Context) (*result, error) {
	st := b.stream()
	var (
		times []float64
		s     *served
	)
	for k := 0; k < setups; k++ {
		start := time.Now()
		next, err := b.setUp(ctx, b.w, st, overTCP, b.faults())
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if k < setups-1 {
			b.tally("set-up", next.drv.led)
			if err := next.tearDown(); err != nil {
				return nil, err
			}
			continue
		}
		s = next
	}
	m := s.drv.measure(ctx, st.writes, s.drv.writers())
	s.drv.led.checkEngine(s.nd.srv.Engine())
	s.drv.readBack(ctx, 1)
	if err := s.tearDown(); err != nil {
		return nil, err
	}
	led := s.drv.led
	b.tally(b.w.name, led)
	if _, err := b.durableRung(ctx, st, 1); err != nil {
		return nil, err
	}
	return b.result(map[string]metric{
		"setup_s":       {median(times), "s"},
		"write_p50_us":  {m.windowP(50, opPut, opBatch), "us"},
		"rejected_frac": {ratio(led.rejected, led.offered), "frac"},
		"ok_frac":       {b.checks.okFrac(), "frac"},
	}), nil
}
