package main

import (
	"bytes"
	"fmt"

	"zeus/internal/bench"
	"zeus/internal/cluster"
	"zeus/internal/dbapi"
	"zeus/internal/store"
	"zeus/internal/wire"
)

// readRO reads obj in a read-only transaction on node i, retrying
// conflicts under dbapi's default policy.
func readRO(c *cluster.Cluster, i int, obj uint64) ([]byte, error) {
	var out []byte
	err := dbapi.RunRO(c.Node(i).DB(), 0, func(tx dbapi.Txn) error {
		v, err := tx.Get(obj)
		out = v
		return err
	})
	return out, err
}

// checkAgreement verifies, for every object a live node holds a replica
// of, that exactly one live node owns it, that every live holder is in the
// owner's replica set, and that every reader the owner lists reads the same
// value as the owner in a read-only transaction. It returns each object's
// value as its owner reads it. Call it with the cluster idle.
func checkAgreement(c *cluster.Cluster) (map[uint64][]byte, error) {
	type entry struct {
		owners  []wire.NodeID
		readers wire.Bitmap // as the owner lists them
		holders wire.Bitmap // live nodes holding any replica level
	}
	live := c.Live()
	objs := map[wire.ObjectID]*entry{}
	for _, id := range live.Nodes() {
		c.Node(int(id)).Store().ForEach(func(o *store.Object) bool {
			o.Mu.Lock()
			lvl, reps := o.Level, o.Replicas
			o.Mu.Unlock()
			if lvl == wire.NonReplica {
				return true // directory entry only
			}
			e := objs[o.ID]
			if e == nil {
				e = &entry{}
				objs[o.ID] = e
			}
			e.holders = e.holders.Add(id)
			if lvl == wire.Owner {
				e.owners = append(e.owners, id)
				e.readers = reps.Readers
			}
			return true
		})
	}
	values := make(map[uint64][]byte, len(objs))
	for obj, e := range objs {
		if len(e.owners) != 1 {
			return nil, fmt.Errorf("object %d has %d live owners %v", obj, len(e.owners), e.owners)
		}
		owner := e.owners[0]
		if extra := e.holders &^ e.readers.Add(owner); extra != 0 {
			return nil, fmt.Errorf("object %d: nodes %v hold replicas the owner %d does not list", obj, extra, owner)
		}
		want, err := readRO(c, int(owner), uint64(obj))
		if err != nil {
			return nil, fmt.Errorf("object %d: read on owner %d: %w", obj, owner, err)
		}
		for _, r := range e.readers.Intersect(live).Nodes() {
			if !e.holders.Contains(r) {
				return nil, fmt.Errorf("object %d: reader %d listed by owner %d holds no replica", obj, r, owner)
			}
			got, err := readRO(c, int(r), uint64(obj))
			if err != nil {
				return nil, fmt.Errorf("object %d: read on reader %d: %w", obj, r, err)
			}
			if !bytes.Equal(got, want) {
				return nil, fmt.Errorf("object %d: reader %d reads %x, owner %d reads %x", obj, r, got, owner, want)
			}
		}
		values[uint64(obj)] = want
	}
	return values, nil
}

// seedBalance is the balance bench.Smallbank seeds every account object with.
const seedBalance = 1000

// checkTotal verifies the Smallbank invariant: the sum of all balances is
// the seeded total plus the net deltas of every committed write, as the
// clients' wrappers saw them.
func checkTotal(d *deployment, values map[uint64][]byte) error {
	var delta int64
	for _, cl := range d.clients {
		if cl.deltaUnknown > 0 {
			return fmt.Errorf("client %d: %d committed writes changed objects they never read", cl.id, cl.deltaUnknown)
		}
		delta += cl.delta
	}
	objs := d.sb.Objects()
	var total uint64
	for _, o := range objs {
		v, ok := values[o]
		if !ok {
			return fmt.Errorf("account object %d has no owner", o)
		}
		total += bench.FromU64(v)
	}
	seeded := uint64(len(objs)) * seedBalance
	if want := seeded + uint64(delta); total != want {
		return fmt.Errorf("balances sum to %d, want %d (seeded %d + committed net delta %d)", total, want, seeded, delta)
	}
	return nil
}
