package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/storage"
	"zeus/internal/storage/filestorage"
	"zeus/internal/storage/memstorage"
)

// timedStorage is the benchmark's timing wrapper around one node's storage
// driver. It counts every Append, the records and the record payload bytes
// it was handed, and, while a recorder is attached, records each Append's
// interval. Reopen lets the cluster restart the node over the same data
// (cluster.Restart reopens retained drivers that implement it).
type timedStorage struct {
	// reopen opens the driver again after a node incarnation closed it.
	reopen func() (storage.Storage, error)
	inner  atomic.Pointer[driver]
	// reopenErr holds a failed Reopen; every later call returns it.
	reopenErr atomic.Pointer[error]

	appends, records, dataBytes atomic.Uint64
	rec                         atomic.Pointer[spanLog] // nil: counting only
}

type driver struct{ storage.Storage }

// openFileStorage opens a filestorage driver over dir: every Append
// fsyncs before it returns.
func openFileStorage(dir string) (*timedStorage, error) {
	open := func() (storage.Storage, error) {
		st, err := filestorage.Open(dir)
		if err != nil {
			return nil, fmt.Errorf("open storage %s: %w", dir, err)
		}
		return st, nil
	}
	return newTimedStorage(open)
}

// newMemStorage returns an in-memory driver, which keeps the WAL and the
// snapshot in the process across the node's restart.
func newMemStorage() *timedStorage {
	m := memstorage.New()
	t, _ := newTimedStorage(func() (storage.Storage, error) {
		m.Reopen()
		return m, nil
	})
	return t
}

func newTimedStorage(open func() (storage.Storage, error)) (*timedStorage, error) {
	st, err := open()
	if err != nil {
		return nil, err
	}
	t := &timedStorage{reopen: open}
	t.inner.Store(&driver{st})
	return t, nil
}

func (t *timedStorage) store() (storage.Storage, error) {
	if p := t.reopenErr.Load(); p != nil {
		return nil, *p
	}
	return t.inner.Load().Storage, nil
}

func (t *timedStorage) Append(recs []storage.Record) error {
	st, err := t.store()
	if err != nil {
		return err
	}
	start := time.Now()
	err = st.Append(recs)
	if l := t.rec.Load(); l != nil {
		l.add(start, time.Now())
	}
	var n int
	for i := range recs {
		n += len(recs[i].Data)
	}
	t.appends.Add(1)
	t.records.Add(uint64(len(recs)))
	t.dataBytes.Add(uint64(n))
	return err
}

func (t *timedStorage) Snapshot(scan func(emit func(storage.SnapObject) error) error) error {
	st, err := t.store()
	if err != nil {
		return err
	}
	return st.Snapshot(scan)
}

func (t *timedStorage) Recover() (*storage.Recovered, error) {
	st, err := t.store()
	if err != nil {
		return nil, err
	}
	return st.Recover()
}

func (t *timedStorage) Close() error {
	st, err := t.store()
	if err != nil {
		return err
	}
	return st.Close()
}

// Reopen re-opens the driver after the previous node incarnation closed
// it, the way a restarted process opens its data dir.
func (t *timedStorage) Reopen() {
	st, err := t.reopen()
	if err != nil {
		t.reopenErr.Store(&err)
		return
	}
	t.inner.Store(&driver{st})
}

// spanLog collects [start, end) intervals from concurrent goroutines.
type spanLog struct {
	mu    sync.Mutex
	spans []interval
}

type interval struct{ start, end time.Time }

func (l *spanLog) add(start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, interval{start, end})
	l.mu.Unlock()
}

func (l *spanLog) take() []interval {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = nil
	return out
}
