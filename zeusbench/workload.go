package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/bench"
	"zeus/internal/cluster"
	"zeus/internal/dbapi"
	"zeus/internal/storage"
	"zeus/internal/wire"
)

const (
	nodes   = 3
	clients = 2 // one per node 0 and 1, each on worker 0
	workers = 2 // per node (cluster.DefaultOptions uses 8)
	// warmupOps is how many operations each client issues, untimed, after
	// seeding: enough to fault in the commit pipelines and the allocator.
	warmupOps = 2000
)

// workload names one of the benchmark's traffic mixes. Each exists to put
// one path of the paper's design under load: local commits, ownership
// moves, local reads, and durable replication.
type workload struct {
	name string
	why  string
	// remoteFrac is Smallbank's share of writes on another node's accounts.
	remoteFrac float64
	tatp       bool
	// durable runs every node on a storage driver: in memory, or with
	// fsync on filestorage.
	durable, fsync bool
}

var workloads = []workload{
	{name: "local-write", why: "Smallbank, no remote writes: local commit + pipelined replication, no ownership moves"},
	{name: "remote-write", why: "Smallbank, 20% remote writes: ownership acquisition on the critical path", remoteFrac: 0.2},
	{name: "read-mostly", why: "TATP, 80% read-only: local reads and lock-free validation, light commit traffic", tatp: true},
	{name: "durable-write", why: "local-write with every node on the in-memory storage driver: WAL group commit, persist before ack, snapshots", durable: true},
	// Not gated: fsync latency on a shared disk swings run to run far
	// beyond any bound the benchmark may set (see README.md).
	{name: "durable-fsync", why: "durable-write on filestorage: fsync per WAL append, followers persist before ack", durable: true, fsync: true},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// deployment is one built, seeded and warmed cluster for a workload.
type deployment struct {
	w       workload
	c       *cluster.Cluster
	dataDir string // durable-fsync only
	stores  []*timedStorage
	sb      *bench.Smallbank // Smallbank workloads only
	clients []*client
	// acquired records ownership-acquisition latencies while non-nil.
	acquired atomic.Pointer[spanLog]
}

// setup builds a 3-node cluster on the in-memory Hub, seeds the workload's
// data (and, on the durable workloads, snapshots it so the seed is in
// storage), and warms it up with warmupOps operations per client.
func setup(w workload, seed int64, workdir string) (*deployment, error) {
	d := &deployment{w: w}
	opts := cluster.DefaultOptions(nodes)
	opts.Workers = workers
	opts.OnOwnershipLatency = func(lat time.Duration) {
		if l := d.acquired.Load(); l != nil {
			now := time.Now()
			l.add(now.Add(-lat), now)
		}
	}
	var openErr error
	if w.fsync {
		dir, err := os.MkdirTemp(workdir, "data-")
		if err != nil {
			return nil, fmt.Errorf("data dir: %w", err)
		}
		d.dataDir = dir
	}
	if w.durable {
		opts.Storage = func(id wire.NodeID) storage.Storage {
			// cluster.New calls this once per node, sequentially.
			var ts *timedStorage
			if w.fsync {
				var err error
				if ts, err = openFileStorage(filepath.Join(d.dataDir, fmt.Sprintf("node-%d", id))); err != nil {
					openErr = err
					return nil
				}
			} else {
				ts = newMemStorage()
			}
			d.stores = append(d.stores, ts)
			return ts
		}
	}
	d.c = cluster.New(opts)
	if openErr != nil {
		d.close()
		return nil, openErr
	}

	var makeOp func(node int, db dbapi.DB) bench.Op
	if w.tatp {
		t := bench.NewTATP(bench.DefaultTATPConfig(nodes))
		t.Seed(bench.ZeusSeeder(d.c))
		makeOp = t.MakeOp
	} else {
		cfg := bench.DefaultSmallbankConfig(nodes)
		cfg.RemoteWriteFrac = w.remoteFrac
		d.sb = bench.NewSmallbank(cfg)
		d.sb.Seed(bench.ZeusSeeder(d.c))
		makeOp = d.sb.MakeOp
	}
	if w.durable {
		for i := 0; i < nodes; i++ {
			if err := d.c.Node(i).SnapshotNow(); err != nil {
				d.close()
				return nil, fmt.Errorf("snapshot seed on node %d: %w", i, err)
			}
		}
	}
	for i := 0; i < clients; i++ {
		db := &recDB{inner: d.c.Node(i).DB()}
		d.clients = append(d.clients, newClient(i, seed, db, makeOp(i, db)))
	}
	if res := d.runPhase(time.Time{}, time.Time{}, warmupOps, nil); res.failed > 0 {
		d.close()
		return nil, fmt.Errorf("warm-up: %d of %d operations failed: %v", res.failed, res.attempted, res.firstErr)
	}
	if !d.c.WaitIdle(30 * time.Second) {
		d.close()
		return nil, fmt.Errorf("warm-up: commit pipelines did not drain")
	}
	return d, nil
}

func (d *deployment) close() {
	if d.c != nil {
		d.c.Close()
	}
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
}

// runPhase runs every client concurrently and merges their results; see
// client.run. traces, when non-nil, holds one clientTrace per client.
func (d *deployment) runPhase(start, deadline time.Time, maxOps int, traces []*clientTrace) phaseResult {
	results := make([]phaseResult, len(d.clients))
	var wg sync.WaitGroup
	for i, c := range d.clients {
		var tr *clientTrace
		if traces != nil {
			tr = traces[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = c.run(start, deadline, maxOps, tr)
		}()
	}
	wg.Wait()
	var all phaseResult
	for _, r := range results {
		all.attempted += r.attempted
		all.failed += r.failed
		all.noops += r.noops
		all.attempts += r.attempts
		all.writeOps += r.writeOps
		all.userBytes += r.userBytes
		all.reads.merge(&r.reads)
		all.writes.merge(&r.writes)
		all.readWin.merge(r.readWin)
		all.writeWin.merge(r.writeWin)
		if r.lastRead.After(all.lastRead) {
			all.lastRead = r.lastRead
		}
		if r.lastWrite.After(all.lastWrite) {
			all.lastWrite = r.lastWrite
		}
		if all.firstErr == nil {
			all.firstErr = r.firstErr
		}
	}
	return all
}

// counters is a snapshot of every count the cluster and process expose.
type counters struct {
	commits, aborts, roCommits, roAborts uint64
	invs, committedSlots                 uint64
	ownReqs, ownOK, ownNacks, ownTOs     uint64
	msgs, bytes                          uint64
	appends, records, dataBytes          uint64
	proc                                 procCounters
}

func (d *deployment) counters(withMem bool) counters {
	c := counters{msgs: d.c.Messages(), bytes: d.c.Bytes()}
	for i := 0; i < nodes; i++ {
		n := d.c.Node(i)
		s := n.Stats()
		c.commits += s.Commits
		c.aborts += s.Aborts
		c.roCommits += s.ROCommits
		c.roAborts += s.ROAborts
		cs := n.CommitEngine().Stats()
		c.invs += cs.Invalidations
		c.committedSlots += cs.Committed
		ow := n.OwnershipEngine().Stats()
		c.ownReqs += ow.Requests
		c.ownOK += ow.Succeeded
		c.ownNacks += ow.Nacks
		c.ownTOs += ow.Timeouts
	}
	for _, s := range d.stores {
		c.appends += s.appends.Load()
		c.records += s.records.Load()
		c.dataBytes += s.dataBytes.Load()
	}
	c.proc = readProc(withMem)
	return c
}

// pendingSampler samples the coordinators' unvalidated commit slots every
// millisecond until stop is called.
type pendingSampler struct {
	stop chan struct{}
	done chan struct{}
	sum  int64
	n    int64
}

func (d *deployment) samplePending() *pendingSampler {
	p := &pendingSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				for i := 0; i < nodes; i++ {
					p.sum += int64(d.c.Node(i).CommitEngine().PendingSlots())
				}
				p.n++
			}
		}
	}()
	return p
}

// mean stops the sampler and returns the mean sampled slot count.
func (p *pendingSampler) mean() float64 {
	close(p.stop)
	<-p.done
	if p.n == 0 {
		return 0
	}
	return float64(p.sum) / float64(p.n)
}
