package main

import (
	"math/rand"
	"time"

	"zeus/internal/bench"
)

// window is the most operations one client keeps outstanding: a read
// replies when Commit returns, a write when its commit is durable on every
// follower, and the client waits for its oldest reply only when window
// operations are unreplied. The bound belongs to the client, so the queue
// never grows to the commit pipeline's own limit.
const window = 16

// opSource is a splitmix64 rand.Source that is re-seeded per operation, so
// an operation's inputs depend only on (seed, client, index) and never on
// how many conflict retries earlier operations drew randomness for.
type opSource struct{ s uint64 }

func (r *opSource) Seed(seed int64) { r.s = uint64(seed) }
func (r *opSource) Int63() int64    { return int64(r.Uint64() >> 1) }
func (r *opSource) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// opSeed mixes the run seed, client and operation index into one seed.
func opSeed(seed int64, client int, index uint64) int64 {
	r := opSource{s: uint64(seed)}
	r.s ^= uint64(client+1) * 0xd1b54a32d192ed03
	r.s ^= index * 0x8cb92ba72f3d8dd7
	return int64(r.Uint64())
}

// client is one closed-loop client: one goroutine issuing operations on
// one node's worker 0, with a reply collector goroutine per phase.
type client struct {
	id   int
	seed int64
	db   *recDB
	op   bench.Op
	src  opSource
	rng  *rand.Rand
	next uint64 // next operation index; runs on across phases

	// Accumulated over the client's whole life, for the output check.
	delta        int64
	deltaUnknown uint64
}

func newClient(id int, seed int64, db *recDB, op bench.Op) *client {
	c := &client{id: id, seed: seed, db: db, op: op}
	c.rng = rand.New(&c.src)
	return c
}

// phaseResult is what one client did in one phase.
type phaseResult struct {
	attempted, failed, noops uint64
	reads, writes            hist
	// Replies per throughput window, counted by the issuing goroutine
	// (reads) and the reply collector (writes); zero base outside a timed
	// phase.
	readWin, writeWin   windows
	attempts            uint64
	writeOps, userBytes uint64
	lastRead, lastWrite time.Time
	firstErr            error
}

func (r phaseResult) lastReply() time.Time {
	if r.lastWrite.After(r.lastRead) {
		return r.lastWrite
	}
	return r.lastRead
}

// replyWindows returns the replies, reads and writes, per window.
func (r phaseResult) replyWindows() windows {
	var w windows
	w.merge(r.readWin)
	w.merge(r.writeWin)
	return w
}

type pendingWrite struct {
	start, commitEnd time.Time
	durable          <-chan struct{}
	op               opRecord
	id               uint64
	sampled          bool
}

// run issues operations until deadline (or, with maxOps > 0, until maxOps
// were issued), then waits for every outstanding reply. Replies are
// counted per throughput window from start, unless start is zero. tr, when
// non-nil, records the phase's per-layer times.
func (c *client) run(start, deadline time.Time, maxOps int, tr *clientTrace) phaseResult {
	var res phaseResult
	res.readWin.base, res.writeWin.base = start, start
	c.db.trace = tr
	sem := make(chan struct{}, window)
	fifo := make(chan pendingWrite, window)
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for p := range fifo {
			if p.durable != nil {
				<-p.durable
			}
			now := time.Now()
			res.writes.add(now.Sub(p.start))
			res.writeWin.add(now)
			res.lastWrite = now
			if tr != nil {
				dur := now.Sub(p.commitEnd)
				tr.durable.add(dur)
				tr.writes.addOp(&p.op, int64(now.Sub(p.start)), int64(dur))
				if tr.keepDurIv {
					tr.durIv = append(tr.durIv, interval{p.commitEnd, now})
				}
				if p.sampled {
					tr.wspans = append(tr.wspans,
						span{name: "commit.durable", parent: "op", op: p.id, start: p.commitEnd, end: now},
						span{name: "op", op: p.id, start: p.start, end: now})
				}
			}
			<-sem
		}
	}()
	for n := 0; maxOps <= 0 || n < maxOps; n++ {
		sem <- struct{}{}
		start := time.Now()
		if maxOps <= 0 && !start.Before(deadline) {
			<-sem
			break
		}
		index := c.next
		c.next++
		id := uint64(c.id)<<48 | index
		c.db.op = opRecord{}
		if tr != nil {
			tr.startOp(id, index)
		}
		c.src.Seed(opSeed(c.seed, c.id, index))
		err := c.op(0, c.rng)
		op := &c.db.op
		res.attempted++
		res.attempts += uint64(op.attempts)
		switch {
		case err != nil:
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
			<-sem
		case !op.committed:
			// The workload found nothing to do (e.g. a payment from an
			// account to itself): no transaction, nothing to time.
			res.noops++
			<-sem
		case op.write:
			if op.deltaOK {
				c.delta += op.delta
			} else {
				c.deltaUnknown++
			}
			res.writeOps++
			res.userBytes += uint64(op.userBytes)
			fifo <- pendingWrite{start: start, commitEnd: op.commitEnd, durable: op.durable, op: *op, id: id, sampled: tr != nil && tr.sampled}
		default:
			now := time.Now()
			res.reads.add(now.Sub(start))
			res.readWin.add(now)
			res.lastRead = now
			if tr != nil {
				tr.reads.addOp(op, int64(now.Sub(start)), 0)
				if tr.sampled {
					tr.spans = append(tr.spans, span{name: "op", op: id, start: start, end: now})
				}
			}
			<-sem
		}
	}
	close(fifo)
	<-collected
	c.db.trace = nil
	return res
}
