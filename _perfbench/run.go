package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime/metrics"
	"slices"
	"time"
)

// loadResult is everything one run's load phases produced.
type loadResult struct {
	setup   []float64 // scaled set-up times in s
	heapMB  float64
	phases  map[phaseKind][]*phase // the turns of each phase, in order
	order   []*phase
	rt      runtimeStats // over the phases before the write phase
	lagMax  int          // largest reclaim lag sampled during those phases
	check   *checker
	durable durability
}

// durability is the outcome of the closing restart of a durable workload.
type durability struct {
	recovery time.Duration
	walBytes int64
	live     int
}

// load sets a server up setupReps times, runs the main and side phases on
// the last one, and closes the run. The heap is measured after the first
// set-up, while no earlier server can still hold memory.
func (b *bench) load(ctx context.Context) (*loadResult, error) {
	var lr *loadResult
	var setups []float64
	var heap float64
	for rep := 0; rep < setupReps; rep++ {
		before := heapMB()
		var calAfter float64
		calBefore := b.cal.measure()
		d, dir, err := b.session(ctx, func() error {
			calAfter = b.cal.measure()
			if rep == 0 {
				heap = heapMB() - before
			}
			if rep == setupReps-1 {
				lr = b.phases(ctx)
			}
			return nil
		})
		if err == nil && lr != nil {
			err = b.closeRun(ctx, lr, dir)
		}
		if dir != "" {
			err = errors.Join(err, os.RemoveAll(dir))
		}
		if err != nil {
			return nil, err
		}
		// The set-up of a durable workload waits on fsync; it is not scaled.
		scale := 1.0
		if !b.w.durable {
			scale = b.scale(calBefore, calAfter)
		}
		setups = append(setups, d.Seconds()*scale)
	}
	lr.setup, lr.heapMB = setups, heap
	return lr, nil
}

// windows is how many turns a phase run in turns takes, and how many
// windows a phase run in one piece is cut into. Each median latency and
// rate is computed per window, scaled in a closed loop (calib.go), and the
// median over windows is reported: interleaving spreads the reading
// phases over the whole run, so that interference from outside the
// benchmark lasting a few seconds moves a few windows of each phase, not
// all of one phase. A p99 is taken over the scaled samples of all windows
// pooled, since a window holds too few of the rarer operations for a 99th
// percentile of its own.
const windows = 30

// phases runs the workload's phases on the current server: first the
// phases that only read, taking turns, one window each per turn, so that
// they see the index at its set-up size; then the open-loop mix of a
// durable workload in one piece, so that its snapshot and compaction
// tickers fire inside it at the same offsets on every run; last the write
// phase of a read-only workload, in turns that follow each other, because
// its ingests grow the index. Every turn runs between two calibrations.
func (b *bench) phases(ctx context.Context) *loadResult {
	lr := &loadResult{phases: make(map[phaseKind][]*phase)}
	// run runs the phases of the workload that are one of kinds, in the
	// workload's order, each for 1/turns of its share of the run.
	run := func(turns int, kinds ...phaseKind) {
		for _, sh := range b.w.phases {
			if slices.Contains(kinds, sh.kind) {
				p := b.measuredPhase(ctx, sh.kind, b.runFor*time.Duration(sh.pct)/100/time.Duration(turns))
				lr.phases[sh.kind] = append(lr.phases[sh.kind], &p)
				lr.order = append(lr.order, &p)
			}
		}
	}
	rt0 := readRuntime()
	stopLag := func() int { return 0 }
	if b.trace {
		stopLag = b.sampleLag()
	}
	for r := 0; r < windows; r++ {
		run(windows, phaseKNN, phaseBatch)
	}
	run(1, phaseMixed)
	lr.lagMax = stopLag()
	lr.rt = readRuntime().since(rt0)
	for r := 0; r < windows; r++ {
		run(windows, phaseWrite)
	}
	return lr
}

// closeRun checks every answer of the phases and, on a durable workload,
// restarts a server on the stopped one's WAL directory dir.
func (b *bench) closeRun(ctx context.Context, lr *loadResult, dir string) error {
	lr.check = newChecker(b.data, b.seed)
	lr.check.checkPhases(lr.order)
	if !b.w.durable {
		return nil
	}
	var err error
	lr.durable, err = b.restartCheck(ctx, lr.check, dir)
	return err
}

// lateP99 is the 99th percentile of how late the open-loop generator sent
// its requests, in ms; 0 without an open-loop phase.
func (lr *loadResult) lateP99() float64 {
	var late []float64
	for _, p := range lr.phases[phaseMixed] {
		for i := range p.recs {
			late = append(late, ms(p.recs[i].start-p.recs[i].due))
		}
	}
	return quantile(late, 0.99)
}

// restartCheck reopens a server on the WAL directory dir of the stopped
// one and checks that it recovered exactly the acknowledged state: the
// size is acknowledged ingests minus acknowledged deletes, and sampled live
// IDs answer a query of their own series with themselves at distance 0.
func (b *bench) restartCheck(ctx context.Context, c *checker, dir string) (durability, error) {
	var d durability
	var err error
	if d.walBytes, err = walBytes(dir); err != nil {
		return d, err
	}
	var live []int
	for id, l := range c.life {
		if !l.ingestAck.IsZero() && l.deleteAck.IsZero() {
			live = append(live, id)
		}
	}
	d.live = len(live)
	err = withServer(ctx, b.w.serverConfig(dir, b.runFor), func(h *harness) error {
		_, d.recovery, _ = h.srv.Recovery()
		c.attempted++
		if n := h.srv.Index().Len(); n != len(live) {
			c.fail("restart: %d series recovered, %d acknowledged and not deleted", n, len(live))
		}
		for i := 0; i < 32 && len(live) > 0; i++ {
			id := live[(i*len(live))/32]
			c.attempted++
			status, body, err := h.do(ctx, "POST", "/v1/knn", knnBody(b.data.series[id], 1))
			if err != nil || status != 200 {
				c.fail("restart: query of ID %d: status %d: %v", id, status, err)
				continue
			}
			var resp knnResponse
			if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != 1 ||
				resp.Results[0].ID != id || resp.Results[0].Dist != 0 { // a series queried against itself is at exactly zero distance
				c.fail("restart: ID %d answered %.200s", id, body)
			}
		}
		return nil
	})
	if err != nil {
		return d, fmt.Errorf("restart: %w", err)
	}
	return d, nil
}

// sampleLag polls the index's reclaim lag every 5ms until the returned
// function is called, which returns the largest value seen.
func (b *bench) sampleLag() func() int {
	stop := make(chan struct{})
	done := make(chan int)
	idx := b.h.srv.Index()
	go func() {
		lag := 0
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- lag
				return
			case <-t.C:
				lag = max(lag, idx.ReclaimLag())
			}
		}
	}()
	return func() int {
		close(stop)
		return <-done
	}
}

// runtimeStats is the garbage collector's share of one interval.
type runtimeStats struct {
	gcCPU, totalCPU float64
	pauses          *metrics.Float64Histogram
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/pauses:seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeStats{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), pauses: s[2].Value.Float64Histogram()}
}

// since returns the interval between an earlier reading and r.
func (r runtimeStats) since(earlier runtimeStats) runtimeStats {
	out := runtimeStats{gcCPU: r.gcCPU - earlier.gcCPU, totalCPU: r.totalCPU - earlier.totalCPU}
	h := &metrics.Float64Histogram{Buckets: r.pauses.Buckets, Counts: make([]uint64, len(r.pauses.Counts))}
	for i := range h.Counts {
		h.Counts[i] = r.pauses.Counts[i] - earlier.pauses.Counts[i]
	}
	out.pauses = h
	return out
}

// gcFrac is the share of CPU time spent in the garbage collector.
func (r runtimeStats) gcFrac() float64 {
	if r.totalCPU <= 0 {
		return 0
	}
	return r.gcCPU / r.totalCPU
}

// pauseP99 is the 99th percentile stop-the-world pause, in microseconds,
// taken as the upper bound of the bucket it falls in.
func (r runtimeStats) pauseP99() float64 {
	var total uint64
	for _, c := range r.pauses.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(0.99 * float64(total))
	var cum uint64
	for i, c := range r.pauses.Counts {
		cum += c
		if cum > target {
			return r.pauses.Buckets[i+1] * 1e6
		}
	}
	return 0
}

// window holds the latencies in ms of the successful requests of one kind
// in one slice of a phase, and the phase's scale.
type window struct {
	lat   []float64
	dur   time.Duration
	scale float64
}

// cut returns the windows of the successful requests of kind in ps:
// one per turn of a phase that took turns, or a phase run in one piece cut
// into equal windows by due time. It also returns the total count.
func cut(ps []*phase, kind opKind) ([]window, int) {
	cuts := 1
	if len(ps) == 1 {
		cuts = windows
	}
	var out []window
	n := 0
	for _, p := range ps {
		w := make([]window, cuts)
		width := p.elapsed / time.Duration(cuts)
		for i := range p.recs {
			r := &p.recs[i]
			if r.kind != kind || !r.ok() {
				continue
			}
			j := min(int(r.due/max(width, 1)), cuts-1)
			w[j].lat = append(w[j].lat, ms(r.latency()))
			n++
		}
		for j := range w {
			w[j].dur, w[j].scale = width, p.scale
		}
		out = append(out, w...)
	}
	return out, n
}

// perWindow is the median over windows of f.
func perWindow(w []window, f func(window) float64) float64 {
	vals := make([]float64, 0, len(w))
	for _, x := range w {
		if len(x.lat) > 0 {
			vals = append(vals, f(x))
		}
	}
	return median(vals)
}

// p50 is a window's median latency, scaled.
func p50(w window) float64 { return quantile(w.lat, 0.5) * w.scale }

// rate is a window's completed requests per second, scaled.
func rate(w window) float64 { return float64(len(w.lat)) / w.dur.Seconds() / w.scale }

// p99 is the 99th percentile of the scaled latencies of all windows
// together.
func p99(w []window) float64 {
	var all []float64
	for _, x := range w {
		for _, l := range x.lat {
			all = append(all, l*x.scale)
		}
	}
	return quantile(all, 0.99)
}

// phaseWith returns the turns of the phase that measures kind.
func (lr *loadResult) phaseWith(kind opKind) []*phase {
	var order []phaseKind
	switch kind {
	case opKNN:
		order = []phaseKind{phaseKNN, phaseMixed}
	case opBatch:
		order = []phaseKind{phaseBatch}
	default:
		order = []phaseKind{phaseWrite, phaseMixed}
	}
	for _, pk := range order {
		if ps, ok := lr.phases[pk]; ok {
			return ps
		}
	}
	return nil
}

// untraced is a run with tracing off: it reports the end-to-end metrics.
func (b *bench) untraced(ctx context.Context) (*result, error) {
	lr, err := b.load(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]metric{}
	out["setup_s"] = metric{median(lr.setup), "s"}
	out["heap_mb"] = metric{lr.heapMB, "MiB"}
	out["recall_at_k"] = metric{lr.check.recallAtK(), "ratio"}

	knn, nKNN := cut(lr.phaseWith(opKNN), opKNN)
	out["knn_p50_ms"] = metric{perWindow(knn, p50), "ms"}
	out["knn_rps"] = metric{perWindow(knn, rate), "1/s"}

	batch, nBatch := cut(lr.phaseWith(opBatch), opBatch)
	out["batch_qps"] = metric{perWindow(batch, rate) * batchSize, "1/s"}
	out["batch_p50_ms"] = metric{perWindow(batch, p50), "ms"}
	out["batch_p99_ms"] = metric{p99(batch), "ms"}

	ingest, nIngest := cut(lr.phaseWith(opIngest), opIngest)
	del, nDel := cut(lr.phaseWith(opIngest), opDelete)
	out["ingest_p50_ms"] = metric{perWindow(ingest, p50), "ms"}
	out["delete_p50_ms"] = metric{perWindow(del, p50), "ms"}

	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: samples knn %d, batch %d, ingest %d, delete %d; recall sample %d\n",
		b.w.name, b.seed, nKNN, nBatch, nIngest, nDel, lr.check.recallAll)
	return b.finish(lr.check, out), nil
}

// finish assembles the result line and reports problems on stderr.
func (b *bench) finish(c *checker, out map[string]metric) *result {
	for _, p := range c.problems {
		fmt.Fprintln(os.Stderr, "perfbench: wrong:", p)
	}
	return &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: out}
}
