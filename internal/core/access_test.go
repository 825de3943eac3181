package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"zeus/internal/cluster"
	"zeus/internal/core"
	"zeus/internal/dbapi"
	"zeus/internal/wire"
)

// invTap records the R-INVs node 1 receives from node 0's pipelines while
// still handing every message to node 1's commit engine.
type invTap struct {
	mu   sync.Mutex
	invs []*wire.CommitInv
}

func tapInvs(c *cluster.Cluster) *invTap {
	tap := &invTap{}
	n := c.Node(1)
	n.Router().Handle(wire.KindCommitInv, func(from wire.NodeID, m wire.Msg) {
		if inv := m.(*wire.CommitInv); inv.Tx.Pipe.Node == 0 {
			tap.mu.Lock()
			tap.invs = append(tap.invs, inv)
			tap.mu.Unlock()
		}
		n.CommitEngine().Handle(from, m)
	})
	return tap
}

func (tap *invTap) all() []*wire.CommitInv {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return append([]*wire.CommitInv(nil), tap.invs...)
}

func mustGet(t *testing.T, tx *core.Tx, obj uint64) []byte {
	t.Helper()
	v, err := tx.Get(obj)
	if err != nil {
		t.Fatalf("Get(%d): %v", obj, err)
	}
	return v
}

func mustSet(t *testing.T, tx *core.Tx, obj uint64, val []byte) {
	t.Helper()
	if err := tx.Set(obj, val); err != nil {
		t.Fatalf("Set(%d): %v", obj, err)
	}
}

func mustCommitDurable(t *testing.T, tx *core.Tx) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	select {
	case <-tx.Durable():
	case <-time.After(5 * time.Second):
		t.Fatal("reliable commit never validated")
	}
}

// TestAccessSetSemantics pins the transaction's access-set behaviour: what
// Get and Set see inside one transaction, what the R-INV carries out of
// it, and that every way out of a transaction releases what it holds.
func TestAccessSetSemantics(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, c *cluster.Cluster, tap *invTap)
	}{
		{"read own write", func(t *testing.T, c *cluster.Cluster, _ *invTap) {
			tx := c.Node(0).BeginOn(0)
			if got := mustGet(t, tx, 1); string(got) != "v1" {
				t.Fatalf("first read %q", got)
			}
			mustSet(t, tx, 1, []byte("mine"))
			mustSet(t, tx, 2, []byte("blind"))
			if got := mustGet(t, tx, 1); string(got) != "mine" {
				t.Fatalf("read after write %q", got)
			}
			if got := mustGet(t, tx, 2); string(got) != "blind" {
				t.Fatalf("read after blind write %q", got)
			}
			mustCommitDurable(t, tx)
		}},
		{"Get returns a private copy", func(t *testing.T, c *cluster.Cluster, _ *invTap) {
			tx := c.Node(0).BeginOn(0)
			got := mustGet(t, tx, 1)
			got[0] = 'X'
			if again := mustGet(t, tx, 1); string(again) != "v1" {
				t.Fatalf("mutating a read changed the next one: %q", again)
			}
			val := []byte("set")
			mustSet(t, tx, 2, val)
			val[0] = 'X'
			w := mustGet(t, tx, 2)
			w[1] = 'X'
			if again := mustGet(t, tx, 2); string(again) != "set" {
				t.Fatalf("mutating caller buffers changed the write: %q", again)
			}
			mustCommitDurable(t, tx)
			o, _ := c.Node(0).Store().Get(1)
			if d := o.DataCopy(); string(d) != "v1" {
				t.Fatalf("store data mutated through a read: %q", d)
			}
			o, _ = c.Node(0).Store().Get(2)
			if d := o.DataCopy(); string(d) != "set" {
				t.Fatalf("committed %q", d)
			}
		}},
		{"two Sets give one update with the last value", func(t *testing.T, c *cluster.Cluster, tap *invTap) {
			o, _ := c.Node(0).Store().Get(1)
			o.Mu.Lock()
			ver := o.TVersion
			o.Mu.Unlock()
			tx := c.Node(0).BeginOn(0)
			mustSet(t, tx, 1, []byte("first"))
			mustSet(t, tx, 1, []byte("last"))
			mustCommitDurable(t, tx)
			invs := tap.all()
			if len(invs) != 1 || len(invs[0].Updates) != 1 {
				t.Fatalf("want one R-INV with one update, got %d R-INVs", len(invs))
			}
			u := invs[0].Updates[0]
			if u.Obj != 1 || u.Version != ver+1 || string(u.Data) != "last" {
				t.Fatalf("update %d@%d %q, want 1@%d \"last\"", u.Obj, u.Version, u.Data, ver+1)
			}
		}},
		{"write after a concurrent commit conflicts", func(t *testing.T, c *cluster.Cluster, _ *invTap) {
			n := c.Node(0)
			tx := n.BeginOn(0)
			mustGet(t, tx, 1)
			other := n.BeginOn(1)
			mustSet(t, other, 1, []byte("other"))
			mustCommitDurable(t, other)
			if err := tx.Set(1, []byte("stale")); !errors.Is(err, dbapi.ErrConflict) {
				t.Fatalf("Set after the read version moved: %v, want ErrConflict", err)
			}
			tx.Abort()
		}},
		{"more objects than the inline set, updates in id order", func(t *testing.T, c *cluster.Cluster, tap *invTap) {
			const objs = 20
			tx := c.Node(0).BeginOn(0)
			// Touch the objects out of order, reads and writes interleaved.
			for i := objs; i >= 1; i-- {
				obj := uint64(10 + (i*7)%objs)
				if i%2 == 0 {
					mustGet(t, tx, obj)
				}
				mustSet(t, tx, obj, []byte(fmt.Sprintf("w%d", obj)))
			}
			for obj := uint64(10); obj < 10+objs; obj++ {
				if got := mustGet(t, tx, obj); string(got) != fmt.Sprintf("w%d", obj) {
					t.Fatalf("obj %d reads %q", obj, got)
				}
			}
			mustCommitDurable(t, tx)
			invs := tap.all()
			if len(invs) != 1 || len(invs[0].Updates) != objs {
				t.Fatalf("want one R-INV with %d updates, got %d R-INVs", objs, len(invs))
			}
			for i, u := range invs[0].Updates {
				if want := wire.ObjectID(10 + i); u.Obj != want || string(u.Data) != fmt.Sprintf("w%d", want) {
					t.Fatalf("update %d is obj %d %q, want obj %d", i, u.Obj, u.Data, want)
				}
			}
			for obj := wire.ObjectID(10); obj < 10+objs; obj++ {
				o, ok := c.Node(1).Store().Get(obj)
				if !ok {
					t.Fatalf("follower lacks obj %d", obj)
				}
				if d := o.DataCopy(); !bytes.Equal(d, []byte(fmt.Sprintf("w%d", obj))) {
					t.Fatalf("follower holds %q for obj %d", d, obj)
				}
			}
		}},
		{"Abort releases every held object", func(t *testing.T, c *cluster.Cluster, _ *invTap) {
			n := c.Node(0)
			tx := n.BeginOn(0)
			mustSet(t, tx, 1, []byte("a"))
			mustSet(t, tx, 2, []byte("b"))
			blocked := n.BeginOn(1)
			if err := blocked.Set(2, []byte("x")); !errors.Is(err, dbapi.ErrConflict) {
				t.Fatalf("Set on an object held by another worker: %v", err)
			}
			blocked.Abort()
			tx.Abort()
			next := n.BeginOn(1)
			mustSet(t, next, 1, []byte("c"))
			mustSet(t, next, 2, []byte("d"))
			mustCommitDurable(t, next)
		}},
		{"a conflict releases every held object", func(t *testing.T, c *cluster.Cluster, _ *invTap) {
			n := c.Node(0)
			tx := n.BeginOn(0)
			mustGet(t, tx, 3)
			mustSet(t, tx, 1, []byte("a"))
			mustSet(t, tx, 2, []byte("b"))
			other := n.BeginOn(1)
			mustSet(t, other, 3, []byte("moved"))
			mustCommitDurable(t, other)
			if err := tx.Commit(); !errors.Is(err, dbapi.ErrConflict) {
				t.Fatalf("Commit over a stale read: %v, want ErrConflict", err)
			}
			next := n.BeginOn(1)
			mustSet(t, next, 1, []byte("c"))
			mustSet(t, next, 2, []byte("d"))
			mustCommitDurable(t, next)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 3)
			for obj := wire.ObjectID(1); obj < 30; obj++ {
				c.SeedAt(obj, 0, []byte(fmt.Sprintf("v%d", obj)))
			}
			if !c.WaitIdle(5 * time.Second) {
				t.Fatal("seeding never settled")
			}
			tc.run(t, c, tapInvs(c))
		})
	}
}
