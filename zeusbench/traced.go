package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"
)

// measureTraced runs an untraced reference phase (a third of the time)
// and then a traced phase on the same cluster, and reports the per-layer
// metrics, the layer table and the tracing overhead (traced tps over the
// reference tps). It returns both phases combined, for the guard.
func measureTraced(d *deployment, cfg config, out io.Writer) (*result, phase) {
	total := time.Duration(cfg.seconds) * time.Second
	ref := d.measure(total/3, nil)

	traces := make([]*clientTrace, len(d.clients))
	for i := range traces {
		traces[i] = &clientTrace{keepDurIv: cfg.w.durable}
	}
	appends := &spanLog{}
	for _, s := range d.stores {
		s.rec.Store(appends)
	}
	acquires := &spanLog{}
	d.acquired.Store(acquires)
	sampler := d.samplePending()
	epoch := time.Now()
	p := d.measure(total-total/3, traces)
	pendingMean := sampler.mean()
	d.acquired.Store(nil)
	for _, s := range d.stores {
		s.rec.Store(nil)
	}
	appendIv, acquireIv := appends.take(), acquires.take()

	var get, set, commit, durable hist
	var tot opTotals
	var durIv []interval
	var spans []span
	for _, t := range traces {
		get.merge(&t.get)
		set.merge(&t.set)
		commit.merge(&t.commit)
		durable.merge(&t.durable)
		tot.merge(t.reads)
		tot.merge(t.writes)
		durIv = append(durIv, t.durIv...)
		spans = append(append(spans, t.spans...), t.wspans...)
	}
	var acquireNS, storageNS int64
	var acqLat, appLat hist
	for _, iv := range acquireIv {
		acquireNS += int64(iv.end.Sub(iv.start))
		acqLat.add(iv.end.Sub(iv.start))
		spans = append(spans, span{name: "own.acquire", parent: "core.set", start: iv.start, end: iv.end})
	}
	for _, iv := range appendIv {
		appLat.add(iv.end.Sub(iv.start))
		spans = append(spans, span{name: "storage.append", parent: "commit.durable", start: iv.start, end: iv.end})
	}
	if len(appendIv) > 0 {
		cov := newCoverage(appendIv)
		for _, iv := range durIv {
			storageNS += int64(cov.overlap(iv))
		}
	}

	b, a := p.before, p.after
	ops := p.replied()
	txns := p.committedTxns()
	attempts := (a.commits + a.aborts + a.roCommits + a.roAborts) - (b.commits + b.aborts + b.roCommits + b.roAborts)
	aborts := (a.aborts + a.roAborts) - (b.aborts + b.roAborts)
	slots := a.committedSlots - b.committedSlots
	recs, apps := a.records-b.records, a.appends-b.appends
	gcCPU := a.proc.gcCPU - b.proc.gcCPU
	allCPU := a.proc.totalCPU - b.proc.totalCPU

	g, s, c, du := summarize(&get), summarize(&set), summarize(&commit), summarize(&durable)
	aq, ap := summarize(&acqLat), summarize(&appLat)
	v := map[string]float64{
		"core.get_us_p50":             g.p50,
		"core.get_us_p99":             g.p99,
		"core.set_us_p50":             s.p50,
		"core.set_us_p99":             s.p99,
		"core.commit_us_p50":          c.p50,
		"core.commit_us_p99":          c.p99,
		"core.abort_ratio":            perOf(float64(aborts), attempts),
		"dbapi.attempts_per_op":       perOf(float64(p.res.attempts), p.res.attempted),
		"commit.durable_us_p50":       du.p50,
		"commit.durable_us_p99":       du.p99,
		"commit.pending_slots_mean":   pendingMean,
		"commit.invs_per_txn":         perOf(float64(a.invs-b.invs), slots),
		"own.acquire_us_p50":          aq.p50,
		"own.acquire_us_p99":          aq.p99,
		"own.acquires_per_op":         perOf(float64(a.ownOK-b.ownOK), ops),
		"own.nack_ratio":              perOf(float64(a.ownNacks-b.ownNacks), a.ownReqs-b.ownReqs),
		"own.timeouts":                float64(a.ownTOs - b.ownTOs),
		"transport.msgs_per_txn":      perOf(float64(a.msgs-b.msgs), txns),
		"transport.bytes_per_txn":     perOf(float64(a.bytes-b.bytes), txns),
		"storage.append_us_p50":       ap.p50,
		"storage.append_us_p99":       ap.p99,
		"storage.recs_per_append":     perOf(float64(recs), apps),
		"storage.bytes_per_user_byte": perOf(float64(a.dataBytes-b.dataBytes), p.res.userBytes),
		"proc.cpu_us_per_op":          perOf(float64((a.proc.cpu - b.proc.cpu).Microseconds()), ops),
		"proc.allocs_per_op":          perOf(float64(a.proc.mallocs-b.proc.mallocs), ops),
		"proc.alloc_bytes_per_op":     perOf(float64(a.proc.allocByte-b.proc.allocByte), ops),
		"proc.gc_cpu_fraction":        ratio(gcCPU, allCPU),
		"trace.tps_ratio":             ratio(p.tps(), ref.tps()),
	}
	rows := layerTable(tot, acquireNS, storageNS)
	var sum float64
	for _, r := range rows {
		v["layer."+r.name+"_us"] = r.us
		sum += r.us
	}
	v["layer.op_us"] = perOf(float64(tot.opNS)/1e3, uint64(tot.n))
	m := withUnits(layerUnits, v)
	printMetrics(out, "metric", m)

	fmt.Fprintf(out, "layer table (%s, mean self time per operation over %d operations)\n", cfg.w.name, tot.n)
	for _, r := range rows {
		fmt.Fprintf(out, "  %-16s %10.3f us\n", r.name, r.us)
	}
	fmt.Fprintf(out, "  %-16s %10.3f us (mean operation time %.3f us)\n", "sum", sum, m["layer.op_us"].Value)
	fmt.Fprintf(out, "tracing overhead: traced tps %.0f vs untraced tps %.0f (ratio %.3f)\n", p.tps(), ref.tps(), m["trace.tps_ratio"].Value)
	diag := map[string]metric{
		"core.get_calls":         {float64(g.n), "count"},
		"core.set_calls":         {float64(s.n), "count"},
		"core.commit_calls":      {float64(c.n), "count"},
		"commit.durable_samples": {float64(du.n), "count"},
		"commit.durable_us_p999": {du.p999, "us"},
		"own.acquire_samples":    {float64(aq.n), "count"},
		"own.acquire_us_p999":    {aq.p999, "us"},
		"storage.append_samples": {float64(ap.n), "count"},
		"storage.append_us_p999": {ap.p999, "us"},
		"proc.rss_peak_mb":       {float64(a.proc.maxRSSKB) / 1024, "MB"},
		"traced.attempted":       {float64(p.res.attempted), "count"},
		"traced.failed":          {float64(p.res.failed), "count"},
		"reference.attempted":    {float64(ref.res.attempted), "count"},
		"reference.failed":       {float64(ref.res.failed), "count"},
		"traced.tps":             {p.tps(), "1/s"},
		"reference.tps":          {ref.tps(), "1/s"},
		"spans.written":          {float64(len(spans)), "count"},
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.w.name, cfg.seed))
	if err := writeSpans(path, epoch, spans); err != nil {
		fmt.Fprintf(out, "diag spans_error %q\n", err.Error())
	} else {
		fmt.Fprintf(out, "diag spans_file %s\n", path)
	}
	printMetrics(out, "diag", diag)

	res := &result{
		Attempted: ref.res.attempted + p.res.attempted,
		Failed:    ref.res.failed + p.res.failed,
		Metrics:   m,
	}
	// The guard judges the whole run: both phases' counters.
	whole := p
	whole.before = ref.before
	whole.res.attempted += ref.res.attempted
	whole.res.failed += ref.res.failed
	whole.res.noops += ref.res.noops
	return res, whole
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
