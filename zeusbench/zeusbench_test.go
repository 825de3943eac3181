package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"zeus/internal/bench"
	"zeus/internal/cluster"
	"zeus/internal/dbapi"
	"zeus/internal/storage"
	"zeus/internal/wire"
)

func TestPercentileNearestRank(t *testing.T) {
	var h hist
	for i := 1000; i >= 1; i-- {
		h.add(time.Duration(i))
	}
	sum := summarize(&h)
	if sum.n != 1000 || sum.p50 != 0.5 || sum.p99 != 0.99 || sum.p999 != 0.999 || sum.mean != 0.5005 {
		t.Fatalf("summary of 1..1000 ns = %+v", sum)
	}
	var one hist
	one.add(700 * time.Nanosecond)
	if got := one.percentile(0.99); got != 0.7 {
		t.Fatalf("one sample: p99 = %v, want 0.7", got)
	}
	var empty hist
	if got := empty.percentile(0.5); got != 0 {
		t.Fatalf("no samples: p50 = %v, want 0", got)
	}
}

// TestHistResolution checks that every bucket is at most 0.1% wide, that
// a percentile never lies above the exact sample nor 0.1% below it, and
// that out-of-range durations saturate.
func TestHistResolution(t *testing.T) {
	for i := 1; i < histBuckets; i++ {
		lo, next := histLower(i-1), histLower(i)
		if next <= lo {
			t.Fatalf("bucket %d starts at %d, not above bucket %d's %d", i, next, i-1, lo)
		}
		if lo >= histSub && float64(next-lo) > float64(lo)/histSub {
			t.Fatalf("bucket %d spans %d ns from %d", i-1, next-lo, lo)
		}
		if histIndex(next) != i || histIndex(next-1) != i-1 {
			t.Fatalf("bucket edges %d..%d do not map back to %d", lo, next, i-1)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 10000 {
		v := time.Duration(rng.Int63n(int64(time.Second)))
		var h hist
		h.add(v)
		got := h.percentile(0.5) * 1e3
		exact := float64(v)
		if got > exact || got < exact*(1-1.0/histSub) {
			t.Fatalf("percentile of %d ns = %v ns", v, got)
		}
	}
	var h hist
	h.add(-time.Second)
	h.add(time.Hour)
	if h.percentile(0.5) != 0 || histIndex(uint64(time.Hour)) != histBuckets-1 {
		t.Fatalf("negative or huge durations do not saturate: p50 %v, index %d", h.percentile(0.5), histIndex(uint64(time.Hour)))
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, all hist
	for i := 1; i <= 300; i++ {
		d := time.Duration(i) * time.Microsecond
		all.add(d)
		if i%3 == 0 {
			a.add(d)
		} else {
			b.add(d)
		}
	}
	var m hist
	m.merge(&a)
	m.merge(&b)
	m.merge(&hist{})
	if summarize(&m) != summarize(&all) {
		t.Fatalf("merged %+v, want %+v", summarize(&m), summarize(&all))
	}
}

// TestWindowsMedianTPS checks that replies land in their window, that a
// phase's tps is the median over its complete windows, and that replies
// after the last complete window (the drain) do not count.
func TestWindowsMedianTPS(t *testing.T) {
	base := time.Unix(100, 0)
	var r phaseResult
	r.readWin.base, r.writeWin.base = base, base
	for i, n := range []int{10, 50, 20, 30, 999} {
		for j := 0; j < n; j++ {
			at := base.Add(time.Duration(i)*time.Second + time.Duration(j)*time.Millisecond)
			if j%2 == 0 {
				r.readWin.add(at)
			} else {
				r.writeWin.add(at)
			}
		}
	}
	r.readWin.add(base.Add(-time.Second)) // before the phase: ignored
	r.attempted = 10 + 50 + 20 + 30 + 999
	p := phase{res: r, dur: 4 * time.Second, elapsed: 5 * time.Second}
	if got := p.tps(); got != 25 {
		t.Fatalf("tps = %v, want the median of 10, 50, 20, 30 = 25", got)
	}
	if got := p.meanTPS(); got != float64(r.attempted)/5 {
		t.Fatalf("meanTPS = %v", got)
	}
	var idle windows
	idle.add(base) // zero base: not counted
	if len(idle.counts) != 0 {
		t.Fatal("a window set without a base counted a reply")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1.5, 2.5, 9, 7.25}, [3]float64{2, 5, 8.125}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	med, iqr := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if med != 5.5 || iqr != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v, %v", med, iqr)
	}
}

func TestCoverageOverlap(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	cov := newCoverage([]interval{iv(30, 40), iv(0, 10), iv(5, 15), iv(40, 45)})
	for _, c := range []struct {
		q    interval
		want time.Duration
	}{
		{iv(0, 100), 30 * time.Microsecond},
		{iv(10, 35), 10 * time.Microsecond},
		{iv(15, 30), 0},
		{iv(42, 50), 3 * time.Microsecond},
	} {
		if got := cov.overlap(c.q); got != c.want {
			t.Errorf("overlap(%v..%v) = %v, want %v", c.q.start.Sub(base), c.q.end.Sub(base), got, c.want)
		}
	}
}

func TestLayerTableSumsToOpTime(t *testing.T) {
	tot := opTotals{n: 4, opNS: 4000, getNS: 400, setNS: 800, commitNS: 200, durNS: 2000}
	var sum float64
	for _, r := range layerTable(tot, 300, 500) {
		if r.us < 0 {
			t.Errorf("%s self time %v < 0", r.name, r.us)
		}
		sum += r.us
	}
	if sum != 1.0 {
		t.Fatalf("rows sum to %v us, want the mean op time 1 us", sum)
	}
}

func TestNetDelta(t *testing.T) {
	reads := []objVal{{obj: 1, val: 100}, {obj: 2, val: 50}, {obj: 3, val: 7}}
	for _, c := range []struct {
		writes []objVal
		delta  int64
		ok     bool
	}{
		{[]objVal{{obj: 1, val: 90}, {obj: 2, val: 60}}, 0, true}, // payment
		{[]objVal{{obj: 3, val: 12}}, 5, true},                    // deposit
		{[]objVal{{obj: 1, val: 0}, {obj: 2, val: 0}, {obj: 3, val: 157}}, 0, true},
		{[]objVal{{obj: 1, val: 99}}, -1, true},
		{[]objVal{{obj: 4, val: 1}}, 0, false}, // written, never read
	} {
		d, ok := netDelta(reads, c.writes)
		if d != c.delta || ok != c.ok {
			t.Errorf("netDelta(%v) = %d, %v; want %d, %v", c.writes, d, ok, c.delta, c.ok)
		}
	}
}

// fakeDB is a dbapi.DB whose write commits stay outstanding until the test
// releases them, in order. It records the most commits ever outstanding.
type fakeDB struct {
	mu          sync.Mutex
	cond        *sync.Cond
	vals        map[uint64]uint64
	outstanding []chan struct{}
	maxOut      int
	commits     int
	failFirst   bool // fail every odd Commit with a conflict
	calls       int
}

func newFakeDB() *fakeDB {
	f := &fakeDB{vals: map[uint64]uint64{}}
	f.cond = sync.NewCond(&f.mu)
	return f
}

type fakeTxn struct {
	f      *fakeDB
	ro     bool
	writes map[uint64]uint64
	durCh  chan struct{}
}

func (f *fakeDB) Begin(int) dbapi.Txn   { return &fakeTxn{f: f, writes: map[uint64]uint64{}} }
func (f *fakeDB) BeginRO(int) dbapi.Txn { return &fakeTxn{f: f, ro: true} }

func (t *fakeTxn) Get(obj uint64) ([]byte, error) {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	return bench.U64(t.f.vals[obj]), nil
}

func (t *fakeTxn) Set(obj uint64, val []byte) error {
	t.writes[obj] = bench.FromU64(val)
	return nil
}

func (t *fakeTxn) Commit() error {
	f := t.f
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.failFirst && f.calls%2 == 1 {
		return dbapi.ErrConflict
	}
	if len(t.writes) == 0 {
		return nil
	}
	for k, v := range t.writes {
		f.vals[k] = v
	}
	t.durCh = make(chan struct{})
	f.outstanding = append(f.outstanding, t.durCh)
	f.commits++
	f.maxOut = max(f.maxOut, len(f.outstanding))
	f.cond.Broadcast()
	return nil
}

func (t *fakeTxn) Abort()                   {}
func (t *fakeTxn) Durable() <-chan struct{} { return t.durCh }

// releaseWhen closes the oldest outstanding commit each time full(n)
// holds for the n outstanding, until stop is closed.
func (f *fakeDB) releaser(full func(n int) bool, stop <-chan struct{}) {
	for {
		f.mu.Lock()
		for !full(len(f.outstanding)) {
			select {
			case <-stop:
				f.mu.Unlock()
				return
			default:
			}
			f.cond.Wait()
		}
		close(f.outstanding[0])
		f.outstanding = f.outstanding[1:]
		f.mu.Unlock()
	}
}

func deposit(db dbapi.DB) bench.Op {
	return func(worker int, rng *rand.Rand) error {
		obj := uint64(rng.Intn(4))
		return dbapi.Run(db, worker, func(tx dbapi.Txn) error {
			v, err := tx.Get(obj)
			if err != nil {
				return err
			}
			return tx.Set(obj, bench.U64(bench.FromU64(v)+3))
		})
	}
}

// TestWindowBoundsOutstandingWrites checks that a client keeps at most
// window writes unreplied, that it does fill the window, and that every
// write replies exactly once, with its latency recorded.
func TestWindowBoundsOutstandingWrites(t *testing.T) {
	f := newFakeDB()
	db := &recDB{inner: f}
	c := newClient(0, 7, db, deposit(db))
	const ops = 200
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Release only once the window is full, or for the final drain.
		f.releaser(func(n int) bool {
			return n >= window || (n > 0 && f.commits == ops)
		}, stop)
	}()
	res := c.run(time.Time{}, time.Time{}, ops, nil)
	close(stop)
	f.mu.Lock()
	f.cond.Broadcast()
	f.mu.Unlock()
	<-done
	if f.maxOut != window {
		t.Fatalf("most outstanding writes = %d, want exactly window = %d", f.maxOut, window)
	}
	if res.attempted != ops || res.failed != 0 || res.writeOps != ops || res.writes.n != ops || res.reads.n != 0 {
		t.Fatalf("result: attempted %d failed %d writeOps %d writes %d reads %d",
			res.attempted, res.failed, res.writeOps, res.writes.n, res.reads.n)
	}
	if c.delta != 3*ops || c.deltaUnknown != 0 {
		t.Fatalf("net delta = %d (unknown %d), want %d", c.delta, c.deltaUnknown, 3*ops)
	}
}

// TestReadsReplyAtCommit checks that read-only operations reply when
// Commit returns and never occupy the write FIFO.
func TestReadsReplyAtCommit(t *testing.T) {
	f := newFakeDB()
	db := &recDB{inner: f}
	read := func(worker int, rng *rand.Rand) error {
		return dbapi.RunRO(db, worker, func(tx dbapi.Txn) error {
			_, err := tx.Get(1)
			return err
		})
	}
	c := newClient(1, 7, db, read)
	res := c.run(time.Time{}, time.Time{}, 50, nil)
	if res.reads.n != 50 || res.writes.n != 0 || res.attempts != 50 {
		t.Fatalf("reads %d writes %d attempts %d", res.reads.n, res.writes.n, res.attempts)
	}
}

// TestOnlyCommittedAttemptCounts checks that a conflict-aborted attempt's
// writes do not enter the net delta, and that attempts are counted.
func TestOnlyCommittedAttemptCounts(t *testing.T) {
	f := newFakeDB()
	f.failFirst = true
	db := &recDB{inner: f}
	c := newClient(0, 7, db, deposit(db))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.releaser(func(n int) bool { return n > 0 }, stop)
	}()
	res := c.run(time.Time{}, time.Time{}, 10, nil)
	close(stop)
	f.mu.Lock()
	f.cond.Broadcast()
	f.mu.Unlock()
	<-done
	if res.attempts != 20 || c.delta != 30 {
		t.Fatalf("attempts %d delta %d, want 20 and 30", res.attempts, c.delta)
	}
}

// TestGuardReadsStorageFromNodes checks that the guard's storage arm
// follows what the nodes report, not the workload's own flags: a durable
// workload on memory-only nodes fails, and so does a memory-only workload
// on nodes with storage.
func TestGuardReadsStorageFromNodes(t *testing.T) {
	local, _ := lookupWorkload("local-write")
	durable, _ := lookupWorkload("durable-write")
	build := func(withStorage bool) *cluster.Cluster {
		opts := cluster.DefaultOptions(nodes)
		opts.Workers = workers
		if withStorage {
			opts.Storage = func(wire.NodeID) storage.Storage { return newMemStorage() }
		}
		c := cluster.New(opts)
		t.Cleanup(c.Close)
		return c
	}
	var appended phase
	appended.after.appends = 1
	memOnly, stored := build(false), build(true)
	for _, c := range []struct {
		w    workload
		c    *cluster.Cluster
		p    phase
		fail bool
	}{
		{local, memOnly, phase{}, false},
		{durable, memOnly, appended, true},
		{durable, stored, phase{}, true}, // nothing appended
		{durable, stored, appended, false},
		{local, stored, phase{}, true},
	} {
		err := guard(&deployment{w: c.w, c: c.c}, c.p)
		if (err != nil) != c.fail {
			t.Errorf("%s on storage=%v, %d appends: guard error %v, want failure %v",
				c.w.name, c.c == stored, c.p.after.appends, err, c.fail)
		}
	}
}

func TestOpInputsDependOnlyOnSeedClientIndex(t *testing.T) {
	draw := func(seed int64, client int, index uint64) [4]int {
		var src opSource
		src.Seed(opSeed(seed, client, index))
		r := rand.New(&src)
		return [4]int{r.Intn(1000), r.Intn(1000), r.Intn(1000), r.Intn(1000)}
	}
	if draw(1, 0, 5) != draw(1, 0, 5) {
		t.Fatal("same (seed, client, index) drew different inputs")
	}
	if draw(1, 0, 5) == draw(2, 0, 5) || draw(1, 0, 5) == draw(1, 1, 5) || draw(1, 0, 5) == draw(1, 0, 6) {
		t.Fatal("different (seed, client, index) drew identical inputs")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricNamesAndBenchmarkJSON checks every metric name and unit against
// the allowed alphabet, that every workload BENCHMARK.json names exists,
// and that BENCHMARK.json declares exactly the program's metrics.
func TestMetricNamesAndBenchmarkJSON(t *testing.T) {
	for _, units := range []map[string]string{e2eUnits, layerUnits} {
		for name, unit := range units {
			if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
				t.Errorf("metric %q unit %q", name, unit)
			}
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, units map[string]string) {
		if len(declared) != len(units) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(declared), len(units))
		}
		for _, m := range declared {
			if units[m.Name] != m.Unit {
				t.Errorf("%s: %q has unit %q in BENCHMARK.json, %q in the program", kind, m.Name, m.Unit, units[m.Name])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eUnits)
	check("per_layer", spec.PerLayer, layerUnits)
}
