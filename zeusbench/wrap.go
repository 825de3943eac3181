package main

import (
	"time"

	"zeus/internal/bench"
	"zeus/internal/dbapi"
)

// recDB wraps one client's dbapi.DB. It sees every attempt the workload's
// dbapi.Run loop makes and records, per operation, what the output checks
// and the metrics need: the attempt count, whether and what the committed
// attempt wrote, its Durable() channel and, while tracing, the time spent in
// each core call. One recDB belongs to one client goroutine and runs one
// operation at a time, so it reuses a single transaction wrapper.
type recDB struct {
	inner dbapi.DB
	tx    recTxn
	op    opRecord
	// trace is nil outside a traced phase.
	trace *clientTrace
}

// opRecord is what one operation did; reset before each operation.
type opRecord struct {
	attempts  int
	committed bool
	write     bool
	durable   <-chan struct{}
	// delta is the committed attempt's net change to the sum of the
	// counters it wrote (new value minus the value it first read), as the
	// wrapper saw them; deltaOK is false if it wrote an object it never read.
	delta     int64
	deltaOK   bool
	userBytes int
	// Traced phases only: time inside core Get/Set/Commit calls and the
	// moment the committed attempt's Commit returned.
	getNS, setNS, commitNS int64
	commitEnd              time.Time
}

type objVal struct {
	obj, val uint64
	size     int
}

// recTxn wraps one attempt.
type recTxn struct {
	db     *recDB
	inner  dbapi.Txn
	reads  []objVal // value at first read, per object
	writes []objVal // last value written, per object
}

func (d *recDB) begin(inner dbapi.Txn) dbapi.Txn {
	d.op.attempts++
	t := &d.tx
	t.db, t.inner = d, inner
	t.reads, t.writes = t.reads[:0], t.writes[:0]
	return t
}

func (d *recDB) Begin(worker int) dbapi.Txn   { return d.begin(d.inner.Begin(worker)) }
func (d *recDB) BeginRO(worker int) dbapi.Txn { return d.begin(d.inner.BeginRO(worker)) }

func find(vs []objVal, obj uint64) int {
	for i := range vs {
		if vs[i].obj == obj {
			return i
		}
	}
	return -1
}

func (t *recTxn) Get(obj uint64) ([]byte, error) {
	tr := t.db.trace
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	v, err := t.inner.Get(obj)
	if tr != nil {
		end := time.Now()
		tr.get.add(end.Sub(start))
		t.db.op.getNS += int64(end.Sub(start))
		tr.span("core.get", start, end)
	}
	if err == nil && find(t.reads, obj) < 0 && find(t.writes, obj) < 0 {
		t.reads = append(t.reads, objVal{obj: obj, val: bench.FromU64(v)})
	}
	return v, err
}

func (t *recTxn) Set(obj uint64, val []byte) error {
	tr := t.db.trace
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	err := t.inner.Set(obj, val)
	if tr != nil {
		end := time.Now()
		tr.set.add(end.Sub(start))
		t.db.op.setNS += int64(end.Sub(start))
		tr.span("core.set", start, end)
	}
	if err == nil {
		w := objVal{obj: obj, val: bench.FromU64(val), size: len(val)}
		if i := find(t.writes, obj); i >= 0 {
			t.writes[i] = w
		} else {
			t.writes = append(t.writes, w)
		}
	}
	return err
}

type durabler interface{ Durable() <-chan struct{} }

func (t *recTxn) Commit() error {
	tr := t.db.trace
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	err := t.inner.Commit()
	op := &t.db.op
	if tr != nil {
		end := time.Now()
		tr.commit.add(end.Sub(start))
		op.commitNS += int64(end.Sub(start))
		op.commitEnd = end
		tr.span("core.commit", start, end)
	}
	if err != nil {
		return err
	}
	op.committed = true
	if len(t.writes) == 0 {
		return nil
	}
	op.write = true
	if d, ok := t.inner.(durabler); ok {
		op.durable = d.Durable()
	}
	op.delta, op.deltaOK = netDelta(t.reads, t.writes)
	for _, w := range t.writes {
		op.userBytes += w.size
	}
	return nil
}

func (t *recTxn) Abort() { t.inner.Abort() }

// netDelta is the change a committed write set made to the sum of the
// counters it wrote: for each written object, its final value minus the
// value the transaction first read. ok is false when an object was written
// without being read, so its old value is unknown.
func netDelta(reads, writes []objVal) (delta int64, ok bool) {
	for _, w := range writes {
		i := find(reads, w.obj)
		if i < 0 {
			return 0, false
		}
		delta += int64(w.val - reads[i].val)
	}
	return delta, true
}
