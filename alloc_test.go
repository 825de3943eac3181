//go:build !race

package zeus_test

import (
	"fmt"
	"testing"

	"zeus"
)

// TestWritePathAllocs guards the write path's allocation budget: a
// two-object read-modify-write transaction on the owner, waited until its
// reliable commit validated, counted over the whole process (coordinator,
// followers, coalescer and transport). The count is deterministic up to
// background lease traffic. Each access costs one copy (Get returns a copy,
// Set takes a private one); the rest is the R-INV update slice, the commit
// slot and its done channel, one R-ACK per follower, the R-VAL and the
// in-memory transport's batch copies. The race detector instruments
// allocations, hence the build tag.
func TestWritePathAllocs(t *testing.T) {
	for _, c := range []struct {
		nodes int
		max   float64
	}{
		{nodes: 3, max: 20},
		{nodes: 1, max: 10},
	} {
		t.Run(fmt.Sprintf("nodes=%d", c.nodes), func(t *testing.T) {
			cl := zeus.New(zeus.Options{Nodes: c.nodes, Workers: 2})
			defer cl.Close()
			cl.Seed(1, 0, make([]byte, 64))
			cl.Seed(2, 0, make([]byte, 64))
			n := cl.Node(0)
			rmw := func() {
				tx := n.BeginOn(0)
				a, err := tx.Get(1)
				if err != nil {
					t.Fatal(err)
				}
				b, err := tx.Get(2)
				if err != nil {
					t.Fatal(err)
				}
				a[0]++
				b[0]--
				if err := tx.Set(1, a); err != nil {
					t.Fatal(err)
				}
				if err := tx.Set(2, b); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				<-tx.Durable()
			}
			rmw() // first use creates the pipelines and grows the queues
			if got := testing.AllocsPerRun(200, rmw); got > c.max {
				t.Errorf("%.1f allocs per durable two-object transaction, budget %.0f", got, c.max)
			} else {
				t.Logf("%.1f allocs per durable two-object transaction (budget %.0f)", got, c.max)
			}
		})
	}
}
