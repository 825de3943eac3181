package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"time"
)

// spanEvery keeps the spans of one operation in this many: counts and
// per-layer times cover every operation, the span file is a sample.
const spanEvery = 64

// span is one timed call into a layer, as the benchmark saw it from
// outside. op is the operation id (client<<48 | index; 0 for work no single
// operation owns, such as a WAL group-commit batch), parent the name of the
// enclosing span.
type span struct {
	name, parent string
	op           uint64
	start, end   time.Time
}

// opTotals sums per-operation times, in nanoseconds, over replied
// operations.
type opTotals struct {
	n                                   int64
	opNS, getNS, setNS, commitNS, durNS int64
}

func (a *opTotals) addOp(op *opRecord, opNS, durNS int64) {
	a.n++
	a.opNS += opNS
	a.getNS += op.getNS
	a.setNS += op.setNS
	a.commitNS += op.commitNS
	a.durNS += durNS
}

func (a *opTotals) merge(b opTotals) {
	a.n += b.n
	a.opNS += b.opNS
	a.getNS += b.getNS
	a.setNS += b.setNS
	a.commitNS += b.commitNS
	a.durNS += b.durNS
}

// clientTrace is one client's record of a traced phase. The client
// goroutine owns the fields above the line, its reply collector those below.
type clientTrace struct {
	get, set, commit hist
	spans            []span
	curOp            uint64
	sampled          bool
	reads            opTotals
	// ---
	durable hist
	wspans  []span
	writes  opTotals
	// durIv holds each write's [commit return, reply] interval, kept only
	// when storage is timed (the durable workloads) to attribute WAL time.
	durIv     []interval
	keepDurIv bool
}

func (t *clientTrace) startOp(id uint64, index uint64) {
	t.curOp = id
	t.sampled = index%spanEvery == 0
}

func (t *clientTrace) span(name string, start, end time.Time) {
	if t.sampled {
		t.spans = append(t.spans, span{name: name, parent: "op", op: t.curOp, start: start, end: end})
	}
}

// union merges intervals into disjoint, sorted intervals.
func union(iv []interval) []interval {
	slices.SortFunc(iv, func(a, b interval) int { return a.start.Compare(b.start) })
	var out []interval
	for _, x := range iv {
		if n := len(out); n > 0 && !x.start.After(out[n-1].end) {
			if x.end.After(out[n-1].end) {
				out[n-1].end = x.end
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// coverage answers "how much of [a, b) lies inside a disjoint union".
type coverage struct {
	iv  []interval
	cum []time.Duration // cum[i]: covered time in iv[:i]
}

func newCoverage(iv []interval) coverage {
	u := union(iv)
	cum := make([]time.Duration, len(u)+1)
	for i, x := range u {
		cum[i+1] = cum[i] + x.end.Sub(x.start)
	}
	return coverage{iv: u, cum: cum}
}

// before returns the covered time earlier than t.
func (c coverage) before(t time.Time) time.Duration {
	// i: number of intervals starting before t.
	i, _ := slices.BinarySearchFunc(c.iv, t, func(x interval, t time.Time) int {
		if x.start.Before(t) {
			return -1
		}
		return 1
	})
	if i == 0 {
		return 0
	}
	last := c.iv[i-1]
	if t.Before(last.end) {
		return c.cum[i-1] + t.Sub(last.start)
	}
	return c.cum[i]
}

func (c coverage) overlap(x interval) time.Duration {
	return c.before(x.end) - c.before(x.start)
}

// layerRow is one line of the layer table: mean self time per operation.
type layerRow struct {
	name string
	us   float64
}

// layerTable splits the mean operation time into the timed layers' self
// times and a residual. acquireNS is ownership-acquisition time, which
// happens inside core.Set; storageNS is WAL-append time overlapping the
// writes' durability waits. The rows sum to tot.opNS/tot.n by
// construction: the residual is whatever no timed span covers — Begin,
// the workload's own logic, retry back-off, and time in no timed call.
func layerTable(tot opTotals, acquireNS, storageNS int64) []layerRow {
	per := func(ns int64) float64 { return perOf(float64(ns)/1e3, uint64(tot.n)) }
	rows := []layerRow{
		{"core.get", per(tot.getNS)},
		{"core.set", per(tot.setNS - acquireNS)},
		{"own.acquire", per(acquireNS)},
		{"core.commit", per(tot.commitNS)},
		{"commit.durable", per(tot.durNS - storageNS)},
		{"storage.append", per(storageNS)},
	}
	covered := tot.getNS + tot.setNS + tot.commitNS + tot.durNS
	rows = append(rows, layerRow{"residual", per(tot.opNS - covered)})
	return rows
}

// writeSpans writes spans as JSON lines, times in ns since epoch.
func writeSpans(path string, epoch time.Time, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, "{\"name\":%q,\"parent\":%q,\"op\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.name, s.parent, s.op, s.start.Sub(epoch).Nanoseconds(), s.end.Sub(epoch).Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
