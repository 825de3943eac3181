// Command zeusbench is the repository's benchmark. It drives an in-process
// 3-node Zeus cluster on the in-memory Hub through the public cluster, dbapi
// and core surfaces with two closed-loop clients (one on node 0, one on node
// 1, each on worker 0, at most 16 operations outstanding each), checks the
// cluster's outputs after the run, and prints every metric by name with its
// unit. The last line of standard output is a JSON result.
//
//	zeusbench --workload local-write --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload a
// second way, timing each call into a layer from outside, and reports the
// per-layer metrics, the layer table and the tracing overhead. --steady N
// runs the workload N times with seeds seed..seed+N-1, each in its own
// process, and prints each metric's median and interquartile range.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// setupRounds is how often a run builds, seeds and warms a cluster; setup_s
// is their median and the last cluster is measured.
const setupRounds = 3

// minWriteMsgs is the fewest messages one replicated write can cost with
// three replicas: an R-INV to and an R-ACK from each of two followers.
// Smallbank's 85% writes put local-write's messages per transaction above
// 0.85 × minWriteMsgs; read-mostly must stay below that.
const (
	minWriteMsgs        = 4
	smallbankWriteShare = 0.85
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
	workdir string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zeusbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	steady := fs.Int("steady", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each metric's median and IQR")
	workdir := fs.String("workdir", ".bench_build", "directory for data dirs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "zeusbench: need --workload one of %s, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	if *steady > 0 {
		return steadiness(cfg, *steady, stdout, stderr)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "zeusbench: %v\n", err)
		return 1
	}
	res, err := runOnce(cfg, stdout)
	if res != nil {
		line, _ := json.Marshal(res)
		fmt.Fprintln(stdout, string(line))
	}
	if err != nil {
		fmt.Fprintf(stderr, "zeusbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func printHeader(out io.Writer, cfg config) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced"
	}
	flush := "none (memory-only nodes)"
	switch {
	case cfg.w.fsync:
		flush = "filestorage: fsync before Append returns; followers persist the R-INV before acking"
	case cfg.w.durable:
		flush = "memstorage: Append returns once the in-memory WAL holds the batch; followers persist the R-INV before acking"
	}
	fmt.Fprintf(out, "# zeusbench workload=%s seed=%d seconds=%d mode=%s\n", cfg.w.name, cfg.seed, cfg.seconds, mode)
	fmt.Fprintf(out, "# workload: %s\n", cfg.w.why)
	fmt.Fprintf(out, "# host: cpu=%q nproc=%d gomaxprocs=%d go=%s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(out, "# config: nodes=%d clients=%d window=%d workers=%d fabric=in-memory Hub (no injected delay) flush=%s\n",
		nodes, clients, window, workers, flush)
}

// runOnce performs one run. A non-nil result is printed even with an
// error, so a failed output check still reports what was measured.
func runOnce(cfg config, out io.Writer) (*result, error) {
	printHeader(out, cfg)
	rounds := setupRounds
	if cfg.trace {
		rounds = 1 // set-up time is an end-to-end metric only
	}
	var setupS []float64
	var d *deployment
	for i := 0; i < rounds; i++ {
		if d != nil {
			d.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		d, err = setup(cfg.w, cfg.seed, cfg.workdir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer d.close()

	var res *result
	var p phase
	if cfg.trace {
		res, p = measureTraced(d, cfg, out)
	} else {
		p = d.measure(time.Duration(cfg.seconds)*time.Second, nil)
		res = e2eResult(p, setupS, out)
	}
	if p.res.firstErr != nil {
		fmt.Fprintf(out, "diag first_error %q\n", p.res.firstErr.Error())
	}
	if err := guard(d, p); err != nil {
		fmt.Fprintf(out, "guard FAILED: %v\n", err)
		return res, fmt.Errorf("layer-separation guard: %w", err)
	}
	fmt.Fprintln(out, "guard ok")
	if err := checkOutputs(d, out); err != nil {
		fmt.Fprintf(out, "check FAILED: %v\n", err)
		return res, fmt.Errorf("output check: %w", err)
	}
	res.Correct = true
	return res, nil
}

// phase is one measured interval: the clients' results and the counter
// deltas across it. dur is how long the clients issued operations, elapsed
// runs on to the last reply.
type phase struct {
	res           phaseResult
	dur, elapsed  time.Duration
	before, after counters
}

func (p phase) replied() uint64 { return p.res.attempted - p.res.failed }

// tps is the median of the replies per second over the phase's complete
// throughput windows, so a stall in one window (a background snapshot, a
// slow fsync) moves it less than the mean. A phase shorter than one window
// reports the mean.
func (p phase) tps() float64 {
	n := int(p.dur / tpsWindow)
	if n < 1 {
		return p.meanTPS()
	}
	med, _ := spread(p.res.replyWindows().rates(n))
	return med
}

// meanTPS is the replies over the time until the last reply.
func (p phase) meanTPS() float64 { return float64(p.replied()) / p.elapsed.Seconds() }

// committedTxns is the transactions the phase's operations committed (an
// operation commits at most one; a no-op commits none).
func (p phase) committedTxns() uint64 { return p.replied() - p.res.noops }

func perOf(num float64, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return num / float64(den)
}

// measure runs the clients for dur. traces, when non-nil, records layer
// times; memory statistics are read at the edges only then.
func (d *deployment) measure(dur time.Duration, traces []*clientTrace) phase {
	withMem := traces != nil
	p := phase{dur: dur}
	p.before = d.counters(withMem)
	start := time.Now()
	p.res = d.runPhase(start, start.Add(dur), 0, traces)
	p.after = d.counters(withMem)
	last := p.res.lastReply()
	if last.Before(start) {
		last = time.Now()
	}
	p.elapsed = last.Sub(start)
	return p
}

// e2eUnits declares the end-to-end metrics a --trace 0 result carries and
// their units; layerUnits does the same for --trace 1. BENCHMARK.json lists
// the same names and units.
var e2eUnits = map[string]string{
	"tps":          "1/s",
	"read_p50_us":  "us",
	"write_p50_us": "us",
	"setup_s":      "s",
	"rss_peak_mb":  "MB",
}

var layerUnits = map[string]string{
	"core.get_us_p50":             "us",
	"core.get_us_p99":             "us",
	"core.set_us_p50":             "us",
	"core.set_us_p99":             "us",
	"core.commit_us_p50":          "us",
	"core.commit_us_p99":          "us",
	"core.abort_ratio":            "ratio",
	"dbapi.attempts_per_op":       "attempts/op",
	"commit.durable_us_p50":       "us",
	"commit.durable_us_p99":       "us",
	"commit.pending_slots_mean":   "slots",
	"commit.invs_per_txn":         "invs/txn",
	"own.acquire_us_p50":          "us",
	"own.acquire_us_p99":          "us",
	"own.acquires_per_op":         "acq/op",
	"own.nack_ratio":              "ratio",
	"own.timeouts":                "count",
	"transport.msgs_per_txn":      "msgs/txn",
	"transport.bytes_per_txn":     "B/txn",
	"storage.append_us_p50":       "us",
	"storage.append_us_p99":       "us",
	"storage.recs_per_append":     "recs/append",
	"storage.bytes_per_user_byte": "B/B",
	"proc.cpu_us_per_op":          "us/op",
	"proc.allocs_per_op":          "allocs/op",
	"proc.alloc_bytes_per_op":     "B/op",
	"proc.gc_cpu_fraction":        "ratio",
	"trace.tps_ratio":             "ratio",
	"layer.core.get_us":           "us/op",
	"layer.core.set_us":           "us/op",
	"layer.own.acquire_us":        "us/op",
	"layer.core.commit_us":        "us/op",
	"layer.commit.durable_us":     "us/op",
	"layer.storage.append_us":     "us/op",
	"layer.residual_us":           "us/op",
	"layer.op_us":                 "us/op",
}

// withUnits pairs measured values with their declared units; it panics if
// the names differ from the declaration, which only a bug can cause.
func withUnits(units map[string]string, values map[string]float64) map[string]metric {
	if len(values) != len(units) {
		panic(fmt.Sprintf("zeusbench: %d metrics measured, %d declared", len(values), len(units)))
	}
	m := make(map[string]metric, len(values))
	for name, v := range values {
		unit, ok := units[name]
		if !ok {
			panic("zeusbench: undeclared metric " + name)
		}
		m[name] = metric{v, unit}
	}
	return m
}

func e2eResult(p phase, setupS []float64, out io.Writer) *result {
	rd, wr := summarize(&p.res.reads), summarize(&p.res.writes)
	setupMedian, _ := spread(setupS)
	m := withUnits(e2eUnits, map[string]float64{
		"tps":          p.tps(),
		"read_p50_us":  rd.p50,
		"write_p50_us": wr.p50,
		"setup_s":      setupMedian,
		"rss_peak_mb":  float64(p.after.proc.maxRSSKB) / 1024,
	})
	printMetrics(out, "metric", m)
	diag := map[string]metric{
		"read_p99_us":   {rd.p99, "us"},
		"read_p999_us":  {rd.p999, "us"},
		"read_samples":  {float64(rd.n), "count"},
		"write_p99_us":  {wr.p99, "us"},
		"write_p999_us": {wr.p999, "us"},
		"write_samples": {float64(wr.n), "count"},
		"fail_ratio":    {perOf(float64(p.res.failed), p.res.attempted), "ratio"},
		"attempted":     {float64(p.res.attempted), "count"},
		"failed":        {float64(p.res.failed), "count"},
		"noops":         {float64(p.res.noops), "count"},
		"elapsed_s":     {p.elapsed.Seconds(), "s"},
		"tps_mean":      {p.meanTPS(), "1/s"},
	}
	for i, s := range setupS {
		diag[fmt.Sprintf("setup_round%d_s", i+1)] = metric{s, "s"}
	}
	printMetrics(out, "diag", diag)
	var rates []string
	for _, r := range p.res.replyWindows().rates(int(p.dur / tpsWindow)) {
		rates = append(rates, fmt.Sprintf("%.0f", r))
	}
	fmt.Fprintf(out, "diag tps_windows %s 1/s\n", strings.Join(rates, ","))
	return &result{Attempted: p.res.attempted, Failed: p.res.failed, Metrics: m}
}

func printMetrics(out io.Writer, kind string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(out, "%s %s %g %s\n", kind, n, m[n].Value, m[n].Unit)
	}
}

// guard fails the run when a workload stops exercising the layer it
// exists for: ownership moves only on remote-write, storage only on the
// durable workloads, and read-mostly's commit traffic below local-write's.
// Whether a node runs on storage is what the node itself reports: its
// incarnation is 0 exactly when it has no storage driver.
func guard(d *deployment, p phase) error {
	w := d.w
	acquires := p.after.ownOK - p.before.ownOK
	appends := p.after.appends - p.before.appends
	msgsPerTxn := perOf(float64(p.after.msgs-p.before.msgs), p.committedTxns())
	onStorage := 0
	for i := 0; i < nodes; i++ {
		if d.c.Node(i).Incarnation() > 0 {
			onStorage++
		}
	}
	var errs []error
	switch remote := w.remoteFrac > 0; {
	case remote && acquires == 0:
		errs = append(errs, errors.New("remote-write acquired no ownership"))
	case !remote && acquires > 0:
		errs = append(errs, fmt.Errorf("%s acquired ownership %d times", w.name, acquires))
	}
	switch {
	case w.durable && (onStorage < nodes || appends == 0):
		errs = append(errs, fmt.Errorf("%s runs %d of %d nodes on storage and appended %d times", w.name, onStorage, nodes, appends))
	case !w.durable && onStorage > 0:
		errs = append(errs, fmt.Errorf("%s runs %d nodes on storage", w.name, onStorage))
	}
	if floor := smallbankWriteShare * minWriteMsgs; w.tatp && msgsPerTxn >= floor {
		errs = append(errs, fmt.Errorf("read-mostly sends %.2f msgs per transaction, not below local-write's floor %.2f", msgsPerTxn, floor))
	}
	return errors.Join(errs...)
}

// checkOutputs runs the untimed output checks on an idle cluster: replica
// agreement, the Smallbank balance total, and on the durable workloads the
// same again after node 2 restarts from its storage.
func checkOutputs(d *deployment, out io.Writer) error {
	check := func(when string) error {
		if !d.c.WaitIdle(30 * time.Second) {
			return fmt.Errorf("%s: commit pipelines did not drain", when)
		}
		values, err := checkAgreement(d.c)
		if err != nil {
			return fmt.Errorf("%s: %w", when, err)
		}
		fmt.Fprintf(out, "check %s: %d objects, every replica agrees with its owner\n", when, len(values))
		if d.sb != nil {
			if err := checkTotal(d, values); err != nil {
				return fmt.Errorf("%s: %w", when, err)
			}
			fmt.Fprintf(out, "check %s: balance total matches the seed plus committed deltas\n", when)
		}
		return nil
	}
	if err := check("after run"); err != nil {
		return err
	}
	if !d.w.durable {
		return nil
	}
	if err := d.c.Kill(2); err != nil {
		return fmt.Errorf("kill node 2: %w", err)
	}
	if _, err := d.c.Restart(2); err != nil {
		return fmt.Errorf("restart node 2: %w", err)
	}
	return check("after restarting node 2")
}
