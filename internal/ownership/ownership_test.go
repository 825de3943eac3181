package ownership

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zeus/internal/directory"
	"zeus/internal/membership"
	"zeus/internal/store"
	"zeus/internal/transport"
	"zeus/internal/wire"
)

// tnode bundles one node's ownership stack for tests.
type tnode struct {
	id     wire.NodeID
	st     *store.Store
	eng    *Engine
	dir    *directory.Service
	tr     *transport.MemTransport
	router *transport.Router
	agent  *membership.Agent
}

type tcluster struct {
	hub   *transport.Hub
	mgr   *membership.Manager
	nodes []*tnode
}

// testDirShards fixes the directory shard count so driver placement does
// not depend on the host's core count.
const testDirShards = 4

func newTestCluster(t *testing.T, n int) *tcluster {
	t.Helper()
	var members wire.Bitmap
	for i := 0; i < n; i++ {
		members = members.Add(wire.NodeID(i))
	}
	hub := transport.NewHub()
	mgr := membership.NewManager(membership.Config{Lease: 2 * time.Millisecond, DirShards: testDirShards}, members)
	c := &tcluster{hub: hub, mgr: mgr}
	for i := 0; i < n; i++ {
		id := wire.NodeID(i)
		st := store.New()
		tr := hub.Node(id)
		agent := mgr.Agent(id)
		dir := directory.NewService(id, st, tr, agent)
		eng := New(id, st, tr, agent, dir, Config{Deadline: 3 * time.Second})
		r := transport.NewRouter()
		dir.Register(r)
		eng.Register(r)
		tr.SetHandler(r.Dispatch)
		nd := &tnode{id: id, st: st, eng: eng, dir: dir, tr: tr, router: r, agent: agent}
		agent.OnChange(func(old, next wire.View, removed wire.Bitmap) {
			if removed.Count() > 0 {
				eng.Pause()
				eng.PruneDead(next.Live)
				// No commit engine in these tests: report done now.
				agent.ReportRecoveryDone(next.Epoch)
			}
		})
		agent.OnRecovered(func(wire.Epoch) { eng.Resume() })
		c.nodes = append(c.nodes, nd)
		t.Cleanup(func() { eng.Close(); tr.Close() })
	}
	return c
}

// drivers returns obj's directory drivers under the current placement.
func (c *tcluster) drivers(obj wire.ObjectID) wire.Bitmap {
	return c.nodes[0].dir.DriversFor(obj)
}

func (c *tcluster) kill(t *testing.T, id wire.NodeID) {
	t.Helper()
	c.hub.SetDown(id, true)
	before := c.mgr.View().Epoch
	c.mgr.Fail(id)
	if !c.mgr.WaitEpoch(before+1, 2*time.Second) {
		t.Fatal("view change never happened")
	}
	// Let recovery callbacks run.
	deadline := time.Now().Add(2 * time.Second)
	for c.mgr.RecoveryPending() {
		if time.Now().After(deadline) {
			t.Fatal("recovery barrier never closed")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// ownersOf returns the set of nodes that believe they own obj.
func (c *tcluster) ownersOf(obj wire.ObjectID) []wire.NodeID {
	var out []wire.NodeID
	for _, nd := range c.nodes {
		if o, ok := nd.st.Get(obj); ok {
			o.Mu.Lock()
			if o.Level == wire.Owner {
				out = append(out, nd.id)
			}
			o.Mu.Unlock()
		}
	}
	return out
}

// waitLevel polls until node id reaches level for obj.
func (c *tcluster) waitLevel(t *testing.T, id wire.NodeID, obj wire.ObjectID, lvl wire.AccessLevel) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if o, ok := c.nodes[id].st.Get(obj); ok {
			o.Mu.Lock()
			cur := o.Level
			o.Mu.Unlock()
			if cur == lvl {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d never reached %v for obj %d", id, lvl, obj)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func seed(t *testing.T, c *tcluster, owner wire.NodeID, obj wire.ObjectID, readers wire.Bitmap, data []byte) {
	t.Helper()
	if err := c.nodes[owner].eng.Create(obj, readers); err != nil {
		t.Fatalf("create obj %d: %v", obj, err)
	}
	// Install initial data at the owner and readers directly (in the full
	// system the first write transaction replicates it). Readers learn
	// their role at VAL time, so wait for the level to settle first.
	c.waitLevel(t, owner, obj, wire.Owner)
	for _, r := range readers.Nodes() {
		if r != owner {
			c.waitLevel(t, r, obj, wire.Reader)
		}
	}
	for _, nd := range c.nodes {
		o, ok := nd.st.Get(obj)
		if !ok {
			continue
		}
		o.Mu.Lock()
		if o.Level == wire.Owner || o.Level == wire.Reader {
			o.Data = append([]byte(nil), data...)
			o.TVersion = 1
		}
		o.Mu.Unlock()
	}
}

func TestCreateEstablishesOwnerAndReaders(t *testing.T) {
	c := newTestCluster(t, 4)
	if err := c.nodes[3].eng.Create(100, wire.BitmapOf(1)); err != nil {
		t.Fatal(err)
	}
	c.waitLevel(t, 3, 100, wire.Owner)
	c.waitLevel(t, 1, 100, wire.Reader)
	// Directory nodes agree on the replica set (VALs apply asynchronously).
	for _, d := range c.drivers(100).Nodes() {
		c.waitDir(t, d, 100, func(reps wire.ReplicaSet) bool {
			return reps.Owner == 3 && reps.Readers.Contains(1)
		})
	}
}

// waitDir polls until dir node d's entry for obj is Valid and satisfies ok.
func (c *tcluster) waitDir(t *testing.T, d wire.NodeID, obj wire.ObjectID, ok func(wire.ReplicaSet) bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if o, found := c.nodes[d].st.Get(obj); found {
			o.Mu.Lock()
			st, reps := o.OState, o.Replicas
			o.Mu.Unlock()
			if st == store.OValid && ok(reps) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("dir node %d never converged for obj %d", d, obj)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestAcquireOwnershipTransfersDataToNonReplica(t *testing.T) {
	c := newTestCluster(t, 4)
	seed(t, c, 0, 7, wire.BitmapOf(1), []byte("payload"))
	if err := c.nodes[3].eng.AcquireOwnership(7); err != nil {
		t.Fatal(err)
	}
	o, ok := c.nodes[3].st.Get(7)
	if !ok {
		t.Fatal("no object at new owner")
	}
	o.Mu.Lock()
	lvl, data := o.Level, string(o.Data)
	o.Mu.Unlock()
	if lvl != wire.Owner {
		t.Fatalf("level = %v", lvl)
	}
	if data != "payload" {
		t.Fatalf("data = %q", data)
	}
	// Previous owner demoted to reader (keeps replica).
	c.waitLevel(t, 0, 7, wire.Reader)
	if owners := c.ownersOf(7); len(owners) != 1 || owners[0] != 3 {
		t.Fatalf("owners = %v", owners)
	}
}

func TestAcquireOwnershipFromReaderNoDataTransfer(t *testing.T) {
	c := newTestCluster(t, 4)
	seed(t, c, 0, 9, wire.BitmapOf(3), []byte("xyz"))
	c.waitLevel(t, 3, 9, wire.Reader)
	if err := c.nodes[3].eng.AcquireOwnership(9); err != nil {
		t.Fatal(err)
	}
	o, _ := c.nodes[3].st.Get(9)
	o.Mu.Lock()
	defer o.Mu.Unlock()
	if o.Level != wire.Owner || string(o.Data) != "xyz" {
		t.Fatalf("reader-to-owner: %v %q", o.Level, o.Data)
	}
}

func TestAcquireReadAddsReplica(t *testing.T) {
	c := newTestCluster(t, 4)
	seed(t, c, 0, 11, 0, []byte("r"))
	if err := c.nodes[3].eng.AcquireRead(11); err != nil {
		t.Fatal(err)
	}
	o, _ := c.nodes[3].st.Get(11)
	o.Mu.Lock()
	defer o.Mu.Unlock()
	if o.Level != wire.Reader || string(o.Data) != "r" {
		t.Fatalf("got %v %q", o.Level, o.Data)
	}
}

func TestFastPathSkipsProtocol(t *testing.T) {
	c := newTestCluster(t, 3)
	seed(t, c, 0, 5, 0, []byte("d"))
	before := c.nodes[0].eng.Stats().Requests
	if err := c.nodes[0].eng.AcquireOwnership(5); err != nil {
		t.Fatal(err)
	}
	if got := c.nodes[0].eng.Stats().Requests; got != before {
		t.Fatalf("owner re-acquire issued %d requests", got-before)
	}
}

// TestUnknownObjectRejected pins the unknown-object rule: the request fails
// only after distinct drivers corroborate, so at most three REQs, each to a
// different driver of the object's shard.
func TestUnknownObjectRejected(t *testing.T) {
	c := newTestCluster(t, 5)
	const obj = wire.ObjectID(999)
	drivers := c.drivers(obj)
	requester := wire.NodeID(wire.NoNode)
	for _, nd := range c.nodes {
		if !drivers.Contains(nd.id) {
			requester = nd.id // every REQ then crosses the hub
		}
	}
	var reqs [5]atomic.Int32
	for _, nd := range c.nodes {
		nd.tr.SetHandler(func(from wire.NodeID, m wire.Msg) {
			if r, ok := m.(*wire.OwnReq); ok && r.Obj == obj {
				reqs[nd.id].Add(1)
			}
			nd.router.Dispatch(from, m)
		})
	}
	before := c.nodes[requester].eng.Stats().Requests
	err := c.nodes[requester].eng.AcquireOwnership(obj)
	if !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err = %v", err)
	}
	if n := c.nodes[requester].eng.Stats().Requests - before; n < 1 || n > 3 {
		t.Fatalf("unknown object took %d REQs, want 1..3", n)
	}
	for id := range reqs {
		got := reqs[id].Load()
		if got > 1 {
			t.Fatalf("node %d received %d REQs; drivers must be distinct", id, got)
		}
		if got == 1 && !drivers.Contains(wire.NodeID(id)) {
			t.Fatalf("REQ sent to non-driver %d (drivers %v)", id, drivers)
		}
	}
}

func TestContentionSingleWinnerThenBothSucceed(t *testing.T) {
	c := newTestCluster(t, 5)
	seed(t, c, 0, 42, 0, []byte("hot"))
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, id := range []wire.NodeID{3, 4} {
		wg.Add(1)
		go func(slot int, id wire.NodeID) {
			defer wg.Done()
			errs[slot] = c.nodes[id].eng.AcquireOwnership(42)
		}(i, id)
	}
	wg.Wait()
	// Both must eventually succeed (the loser retries with back-off).
	for i, err := range errs {
		if err != nil {
			t.Fatalf("acquirer %d failed: %v", i, err)
		}
	}
	time.Sleep(20 * time.Millisecond) // let trailing VALs apply
	owners := c.ownersOf(42)
	if len(owners) != 1 {
		t.Fatalf("owners = %v, want exactly one", owners)
	}
	if owners[0] != 3 && owners[0] != 4 {
		t.Fatalf("unexpected final owner %d", owners[0])
	}
	// The winner holds the data.
	o, _ := c.nodes[owners[0]].st.Get(42)
	o.Mu.Lock()
	defer o.Mu.Unlock()
	if string(o.Data) != "hot" {
		t.Fatalf("final owner data %q", o.Data)
	}
}

func TestPendingCommitNackThenRetrySucceeds(t *testing.T) {
	c := newTestCluster(t, 4)
	seed(t, c, 0, 13, 0, []byte("p"))
	var pending atomic.Bool
	pending.Store(true)
	c.nodes[0].eng.HasPendingCommit = func(obj wire.ObjectID) bool {
		return obj == 13 && pending.Load()
	}
	// Drain the "pipeline" shortly after the first NACKs.
	time.AfterFunc(10*time.Millisecond, func() { pending.Store(false) })
	if err := c.nodes[3].eng.AcquireOwnership(13); err != nil {
		t.Fatal(err)
	}
	// The requester applies first; the old owner demotes on the async VAL.
	c.waitLevel(t, 0, 13, wire.Reader)
	if owners := c.ownersOf(13); len(owners) != 1 || owners[0] != 3 {
		t.Fatalf("owners = %v", owners)
	}
	if c.nodes[3].eng.Stats().Nacks == 0 && c.nodes[0].eng.Stats().Nacks == 0 {
		t.Log("note: ownership won before first NACK (timing dependent)")
	}
}

func TestDropReaderDiscardsReplica(t *testing.T) {
	c := newTestCluster(t, 5)
	seed(t, c, 0, 21, wire.BitmapOf(3, 4), []byte("z"))
	c.waitLevel(t, 3, 21, wire.Reader)
	if err := c.nodes[0].eng.DropReader(21, 3); err != nil {
		t.Fatal(err)
	}
	c.waitLevel(t, 3, 21, wire.NonReplica)
	o, _ := c.nodes[3].st.Get(21)
	o.Mu.Lock()
	data := o.Data
	o.Mu.Unlock()
	if data != nil {
		t.Fatalf("dropped reader kept data %q", data)
	}
	// Directory no longer lists node 3 (VAL applies asynchronously).
	for _, d := range c.drivers(21).Nodes() {
		c.waitDir(t, d, 21, func(reps wire.ReplicaSet) bool {
			return !reps.Readers.Contains(3)
		})
	}
}

func TestDeleteRemovesEverywhere(t *testing.T) {
	c := newTestCluster(t, 4)
	seed(t, c, 0, 33, wire.BitmapOf(3), []byte("gone"))
	c.waitLevel(t, 3, 33, wire.Reader)
	if err := c.nodes[0].eng.Delete(33); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		gone := true
		if o, ok := c.nodes[3].st.Get(33); ok {
			o.Mu.Lock()
			if o.Level != wire.NonReplica || o.Data != nil {
				gone = false
			}
			o.Mu.Unlock()
		}
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica not discarded after delete")
		}
		time.Sleep(time.Millisecond)
	}
	// Re-acquiring a deleted object fails as unknown.
	if err := c.nodes[2].eng.AcquireOwnership(33); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("post-delete acquire: %v", err)
	}
}

func TestOwnerDeathNewOwnerTakesOverFromReader(t *testing.T) {
	c := newTestCluster(t, 5)
	seed(t, c, 4, 55, wire.BitmapOf(3), []byte("survivor"))
	c.waitLevel(t, 3, 55, wire.Reader)
	d := c.drivers(55).Remove(4).Nodes()[0]
	c.kill(t, 4)
	// Directory pruned the dead owner.
	o, _ := c.nodes[d].st.Get(55)
	o.Mu.Lock()
	if o.Replicas.Owner != wire.NoNode {
		t.Fatalf("dead owner still recorded: %v", o.Replicas)
	}
	o.Mu.Unlock()
	// A non-replica node takes over; data is sourced from the reader.
	if err := c.nodes[2].eng.AcquireOwnership(55); err != nil {
		t.Fatal(err)
	}
	no, _ := c.nodes[2].st.Get(55)
	no.Mu.Lock()
	defer no.Mu.Unlock()
	if no.Level != wire.Owner || string(no.Data) != "survivor" {
		t.Fatalf("takeover failed: %v %q", no.Level, no.Data)
	}
}

func TestArbReplayCompletesOrphanedRequest(t *testing.T) {
	c := newTestCluster(t, 5)
	seed(t, c, 0, 77, 0, []byte("orphan"))
	// Manufacture a half-finished arbitration: a requester that drives
	// nothing for obj 77 was granted ownership (INVs applied at all
	// arbiters: the drivers plus the owner, node 0) but died before sending
	// VALs.
	drivers := c.drivers(77)
	requester := wire.NodeID(wire.NoNode)
	for _, id := range c.mgr.View().Live.Nodes() {
		if id != 0 && !drivers.Contains(id) {
			requester = id
		}
	}
	driver := drivers.Nodes()[0]
	arbiters := drivers.Add(0)
	ts := wire.OTS{Ver: 2, Node: driver}
	newReps := wire.ReplicaSet{Owner: requester, Readers: wire.BitmapOf(0)}
	pend := store.PendingOwn{
		ReqID: uint64(requester)<<48 | 1, TS: ts, Requester: requester, Driver: driver,
		Mode: wire.AcquireOwner, NewReplicas: newReps, PrevOwner: 0,
		Arbiters: arbiters, Epoch: 1,
	}
	for _, id := range arbiters.Nodes() {
		o, _ := c.nodes[id].st.Get(77)
		o.Mu.Lock()
		p := pend
		o.Pending = &p
		o.OState = store.OInvalid
		o.Mu.Unlock()
	}
	c.kill(t, requester) // triggers Pause → PruneDead → Resume → ArbReplayAll
	deadline := time.Now().Add(2 * time.Second)
	for {
		ok := true
		for _, id := range arbiters.Nodes() {
			o, _ := c.nodes[id].st.Get(77)
			o.Mu.Lock()
			if o.OState != store.OValid || o.Pending != nil {
				ok = false
			}
			o.Mu.Unlock()
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("arb-replay never validated the arbiters")
		}
		time.Sleep(time.Millisecond)
	}
	// The request applied: replicas pruned of the dead requester show no
	// owner, and node 0 retains its replica as reader.
	o, _ := c.nodes[driver].st.Get(77)
	o.Mu.Lock()
	defer o.Mu.Unlock()
	if o.Replicas.Owner == requester {
		t.Fatalf("dead node still owner: %v", o.Replicas)
	}
	replays := uint64(0)
	for _, id := range arbiters.Nodes() {
		replays += c.nodes[id].eng.Stats().Replays
	}
	if replays == 0 {
		t.Fatal("no arb-replays recorded")
	}
}

func TestRecoveringNacksNewRequests(t *testing.T) {
	c := newTestCluster(t, 4)
	seed(t, c, 0, 88, 0, []byte("x"))
	for _, nd := range c.nodes {
		nd.eng.Pause()
	}
	cfgErr := make(chan error, 1)
	go func() { cfgErr <- c.nodes[3].eng.AcquireOwnership(88) }()
	time.Sleep(10 * time.Millisecond)
	for _, nd := range c.nodes {
		nd.eng.Resume()
	}
	if err := <-cfgErr; err != nil {
		t.Fatalf("acquire after resume failed: %v", err)
	}
}

func TestOwnershipLatencyHook(t *testing.T) {
	c := newTestCluster(t, 4)
	var mu sync.Mutex
	var lats []time.Duration
	c.nodes[3].eng.cfg.OnLatency = func(d time.Duration) {
		mu.Lock()
		lats = append(lats, d)
		mu.Unlock()
	}
	seed(t, c, 0, 91, 0, []byte("lat"))
	if err := c.nodes[3].eng.AcquireOwnership(91); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lats) != 1 || lats[0] <= 0 {
		t.Fatalf("latencies = %v", lats)
	}
}

func TestManyObjectsBulkMigration(t *testing.T) {
	c := newTestCluster(t, 4)
	const N = 200
	for i := 0; i < N; i++ {
		seed(t, c, 0, wire.ObjectID(1000+i), 0, []byte{byte(i)})
	}
	// Move everything to node 3 (the Voter Figure 10 pattern).
	for i := 0; i < N; i++ {
		if err := c.nodes[3].eng.AcquireOwnership(wire.ObjectID(1000 + i)); err != nil {
			t.Fatalf("obj %d: %v", i, err)
		}
	}
	for i := 0; i < N; i++ {
		// The old owner demotes on the async VAL; poll briefly.
		deadline := time.Now().Add(2 * time.Second)
		for {
			owners := c.ownersOf(wire.ObjectID(1000 + i))
			if len(owners) == 1 && owners[0] == 3 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("obj %d owners = %v", i, owners)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
}

func TestInvariantSingleOwnerUnderChurn(t *testing.T) {
	c := newTestCluster(t, 5)
	const objs = 20
	for i := 0; i < objs; i++ {
		seed(t, c, 0, wire.ObjectID(i), 0, []byte(fmt.Sprintf("v%d", i)))
	}
	var wg sync.WaitGroup
	for _, id := range []wire.NodeID{1, 2, 3, 4} {
		wg.Add(1)
		go func(id wire.NodeID) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				obj := wire.ObjectID((round + int(id)) % objs)
				_ = c.nodes[id].eng.AcquireOwnership(obj)
			}
		}(id)
	}
	wg.Wait()
	time.Sleep(30 * time.Millisecond) // let VALs quiesce
	for i := 0; i < objs; i++ {
		owners := c.ownersOf(wire.ObjectID(i))
		if len(owners) > 1 {
			t.Fatalf("obj %d has %d owners: %v", i, len(owners), owners)
		}
		// Valid directory entries agree with each other.
		var reps []wire.ReplicaSet
		for _, d := range c.drivers(wire.ObjectID(i)).Nodes() {
			o, ok := c.nodes[d].st.Get(wire.ObjectID(i))
			if !ok {
				continue
			}
			o.Mu.Lock()
			if o.OState == store.OValid {
				reps = append(reps, o.Replicas)
			}
			o.Mu.Unlock()
		}
		for j := 1; j < len(reps); j++ {
			if reps[j] != reps[0] {
				t.Fatalf("obj %d: dir disagreement %v vs %v", i, reps[0], reps[j])
			}
		}
		// The owner recorded by a valid directory entry holds Owner level.
		if len(reps) > 0 && reps[0].Owner != wire.NoNode {
			o, ok := c.nodes[reps[0].Owner].st.Get(wire.ObjectID(i))
			if !ok {
				t.Fatalf("obj %d: directory owner %d has no object", i, reps[0].Owner)
			}
			o.Mu.Lock()
			lvl := o.Level
			o.Mu.Unlock()
			if lvl != wire.Owner {
				t.Fatalf("obj %d: directory owner %d at level %v", i, reps[0].Owner, lvl)
			}
		}
	}
}
