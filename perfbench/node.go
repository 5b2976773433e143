package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/client"
	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/server"
	"besteffs/internal/store"
)

// simClock is the node clock, driven by the generator: every object
// offered or read advances it by one step, so importance decays over a run
// by the stream's length, not by how fast the build under test runs.
type simClock struct {
	step time.Duration
	ns   atomic.Int64
}

// advance moves the clock on by steps and returns the new time.
func (c *simClock) advance(steps int) time.Duration {
	return time.Duration(c.ns.Add(int64(steps) * int64(c.step)))
}

func (c *simClock) now() time.Duration { return time.Duration(c.ns.Load()) }

// transport says how clients reach a node.
type transport int

const (
	overTCP  transport = iota // loopback TCP, as a real deployment
	overPipe                  // in-memory net.Pipe: dispatch without TCP
)

// node is one in-process besteffsd-equivalent: a server.Server serving on
// a listener, with a file store and per-shard WALs when durable.
type node struct {
	w     *workload
	srv   *server.Server
	dir   string
	wals  []*journal.WAL
	clock *simClock

	cancel context.CancelFunc
	served chan error
	dial   func() (*client.Client, error)
}

// benchLogger keeps the node quiet unless something goes wrong.
var benchLogger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

// startNode builds and serves a node for w. dir is the data directory of a
// durable node (ignored otherwise). sm, when non-nil, decorates the node's
// public seams: the policy, the blob store and the WAL writers.
func startNode(w *workload, tr transport, dir string, sm *seams) (*node, error) {
	n := &node{w: w, dir: dir, clock: &simClock{step: w.step}}
	var pol policy.Policy = policy.TemporalImportance{}
	opts := []server.Option{
		server.WithLogger(benchLogger),
		server.WithClock(n.clock.now),
	}
	var blobs fullStore = blob.NewMemStore()
	if w.durable {
		files, err := blob.NewFileStore(filepath.Join(dir, "blobs"))
		if err != nil {
			return nil, err
		}
		blobs = files
		var walOpts []journal.WALOption
		if sm != nil && sm.rec != nil {
			walOpts = append(walOpts, journal.WithWriteWrapper(sm.rec.walWriter))
		}
		if n.wals, err = server.OpenShardWALs(dir, w.shards, walOpts...); err != nil {
			return nil, err
		}
		opts = append(opts, server.WithWALs(n.wals))
	}
	if sm != nil && sm.rec != nil {
		pol = &tracedPolicy{inner: pol, rec: sm.rec}
		blobs = &tracedBlobs{inner: blobs, rec: sm.rec}
	}
	if sm != nil && sm.blobFault != nil {
		blobs = sm.blobFault(blobs)
	}
	opts = append(opts, server.WithBlobStore(blobs))
	srv, err := server.New(server.EngineConfig{Capacity: w.capacity, Policy: pol, Shards: w.shards}, opts...)
	if err != nil {
		n.closeWALs()
		return nil, err
	}
	n.srv = srv
	if err := n.listen(tr); err != nil {
		n.closeWALs()
		return nil, err
	}
	return n, nil
}

// listen starts serving the node on a fresh listener of the given kind.
func (n *node) listen(tr transport) error {
	var l net.Listener
	switch tr {
	case overPipe:
		pl := newPipeListener()
		l = pl
		n.dial = func() (*client.Client, error) {
			c, err := pl.dial()
			if err != nil {
				return nil, err
			}
			return client.NewClient(c), nil
		}
	default:
		tl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		l = tl
		addr := tl.Addr().String()
		n.dial = func() (*client.Client, error) { return client.Connect(addr) }
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.served = make(chan error, 1)
	srv := n.srv
	go func() { n.served <- srv.Serve(ctx, l) }()
	return nil
}

// stop shuts the node down the way a crash-free exit without a final
// checkpoint does: Serve drains and returns, then the WALs are closed.
func (n *node) stop() error {
	n.cancel()
	err := <-n.served
	if errors.Is(err, net.ErrClosed) || errors.Is(err, context.Canceled) {
		err = nil
	}
	if cerr := n.closeWALs(); err == nil {
		err = cerr
	}
	return err
}

func (n *node) closeWALs() error {
	var first error
	for _, w := range n.wals {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// residentIDs lists the engine's residents in ID order.
func residentIDs(e *store.Engine) []object.ID {
	objs := e.Residents()
	ids := make([]object.ID, len(objs))
	for i, o := range objs {
		ids[i] = o.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// recovered is a node restarted on a durable data directory.
type recovered struct {
	srv   *server.Server
	wals  []*journal.WAL
	stats server.RestoreStats
}

// recoverNode restarts a node on dir as besteffsd does: open the shard WALs
// and a bare file store, then RestoreDir, which alone is timed. The blob
// store must stay a bare *blob.FileStore: only for that type does recovery
// reconcile payload files with residents.
func recoverNode(w *workload, dir string) (*recovered, time.Duration, error) {
	files, err := blob.NewFileStore(filepath.Join(dir, "blobs"))
	if err != nil {
		return nil, 0, err
	}
	wals, err := server.OpenShardWALs(dir, w.shards)
	if err != nil {
		return nil, 0, err
	}
	r := &recovered{wals: wals}
	r.srv, err = server.New(server.EngineConfig{Capacity: w.capacity, Policy: policy.TemporalImportance{}, Shards: w.shards},
		server.WithLogger(benchLogger), server.WithBlobStore(files), server.WithWALs(wals))
	if err != nil {
		r.close()
		return nil, 0, err
	}
	start := time.Now()
	r.stats, err = r.srv.RestoreDir(dir)
	took := time.Since(start)
	if err != nil {
		r.close()
		return nil, took, fmt.Errorf("restore %s: %w", dir, err)
	}
	return r, took, nil
}

// walRecords counts the records in a durable node's WALs.
func walRecords(w *workload, dir string) (int, error) {
	n := 0
	for i := 0; i < w.shards; i++ {
		if _, err := journal.ReplayWAL(server.ShardWALDir(dir, w.shards, i), 0, func(journal.Record) error {
			n++
			return nil
		}); err != nil {
			return 0, err
		}
	}
	return n, nil
}

func (r *recovered) close() error {
	var first error
	for _, w := range r.wals {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// diskBytes sums the sizes of the regular files under dir.
func diskBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// pipeListener hands out the server ends of net.Pipe connections, so the
// node runs its full dispatch without a TCP stack underneath.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		c.Close()
		s.Close()
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
