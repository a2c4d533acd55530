package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sapla/internal/core"
	"sapla/internal/dist"
	"sapla/internal/index"
	"sapla/internal/repr"
	"sapla/internal/ts"
	"sapla/internal/tsio"
	"sapla/internal/wal"
)

// Sizes of the traced replay's seeded operation list.
const (
	traceKNN     = 256 // single queries: query-pool indexes [0, traceKNN)
	traceBatch   = 32  // batches: batch indexes [0, traceBatch)
	traceIngest  = 24  // ingest batches of fresh series
	tracePARReps = 20  // passes over the Dist_PAR timing matrix
)

// span is one timed call. Spans of one operation share Op; Parent is the
// index of the enclosing span in the trace, or -1.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	op    int
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Op: t.op, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// computeSelf sets each span's self time: its duration minus the part of
// it that its children cover.
func (t *tracer) computeSelf() {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, c := range kids {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// durations returns the durations of the spans named name, in µs.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Request and response shapes as the handlers decode and encode them, for
// timing JSON on the same bytes.
type knnRequestJSON struct {
	Values ts.Series `json:"values"`
	K      int       `json:"k"`
}

type batchRequestJSON struct {
	K       int `json:"k"`
	Queries []struct {
		Values ts.Series `json:"values"`
	} `json:"queries"`
}

type ingestRequestJSON struct {
	Series []struct {
		ID     *int      `json:"id"`
		Values ts.Series `json:"values"`
	} `json:"series"`
}

type knnResponseJSON struct {
	Epoch   uint64      `json:"epoch"`
	Results []knnResult `json:"results"`
	Stats   searchStats `json:"stats"`
}

// replay is the traced replay's state.
type replay struct {
	b   *bench
	t   *tracer
	red *core.Reducer
	ws  *index.Workspace
	c   *checker

	work         searchStats // summed over every query searched
	queries      int
	handlerMinus []float64 // knn handler time minus its layer spans, per op (µs)
	netOverhead  []float64 // knn round trip minus handler time, per op (µs)
	skew         []float64 // max/mean shard search time, per query
	opTraced     []float64 // knn replay op time with spans, per op (µs)
	opUntraced   []float64 // the same without spans (µs)
}

// serve runs one request through the server's root handler on a recorder.
func (r *replay) serve(method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	r.b.h.srv.Handler().ServeHTTP(rec, req)
	return rec
}

// prepare runs the handler's query preparation, with a span per layer when
// traced.
func (r *replay) prepare(values ts.Series, traced bool) (dist.Query, error) {
	begin, end := r.spans(traced)
	begin("tsio.validate")
	err := tsio.ValidateSeries(values)
	end()
	if err != nil {
		return dist.Query{}, err
	}
	begin("core.reduce")
	rep, err := r.red.Reduce(values, m)
	end()
	if err != nil {
		return dist.Query{}, err
	}
	begin("dist.query")
	q := dist.NewQuery(values, rep)
	end()
	return q, nil
}

// search runs index.BatchKNNContext under a span, with the worker count
// the handler uses (the default, GOMAXPROCS), so that the span is the
// handler's search and server.self_us compares like with like. The work
// counters it accumulates, when traced, are per query and the same for any
// worker count.
func (r *replay) search(ctx context.Context, qs []dist.Query, traced bool) ([][]index.Result, error) {
	begin, end := r.spans(traced)
	begin("index.search")
	out, stats, err := index.BatchKNNContext(ctx, r.b.h.srv.Index(), qs, k, 0)
	end()
	if !traced {
		return out, err
	}
	for _, st := range stats {
		r.work.Measured += st.Measured
		r.work.Filtered += st.Filtered
		r.work.NodesVisited += st.NodesVisited
	}
	r.queries += len(qs)
	return out, err
}

// scatter re-runs q on every shard separately, a span per shard, to
// measure per-shard search time and skew.
func (r *replay) scatter(q dist.Query) error {
	idx := r.b.h.srv.Index()
	r.t.begin("index.scatter")
	defer r.t.end()
	var sum, worst float64
	for i := 0; i < idx.NumShards(); i++ {
		r.t.begin("index.shard_search")
		_, _, err := idx.Shard(i).KNNWith(r.ws, q, k)
		d := float64(r.t.end())
		if err != nil {
			return err
		}
		sum += d
		worst = max(worst, d)
	}
	if sum > 0 {
		r.skew = append(r.skew, worst/(sum/float64(idx.NumShards())))
	}
	return nil
}

func toJSONResults(res []index.Result) []knnResult {
	out := make([]knnResult, len(res))
	for i, x := range res {
		out[i] = knnResult{ID: x.Entry.ID, Dist: x.Dist}
	}
	return out
}

// knnOp replays one single query: the handler on a recorder, the same
// request over HTTP, and the handler's layer calls with a span each.
func (r *replay) knnOp(ctx context.Context, qi int) error {
	body := r.b.knnBodies[qi]
	r.t.begin("server.knn_handler")
	rec := r.serve("POST", "/v1/knn", body)
	handler := r.t.end()
	r.checkKNN(qi, rec.Code, rec.Body.Bytes())
	r.t.begin("net.knn_roundtrip")
	status, resp, err := r.b.h.do(ctx, "POST", "/v1/knn", body)
	rtt := r.t.end()
	if err != nil {
		return err
	}
	r.checkKNN(qi, status, resp)
	r.netOverhead = append(r.netOverhead, us(rtt-handler))

	// The traced and untraced replays alternate which goes first, so that
	// neither gets the caches the other warmed.
	untraced := func() error {
		t0 := time.Now()
		_, err := r.knnLayers(ctx, body, false)
		r.opUntraced = append(r.opUntraced, us(time.Since(t0)))
		return err
	}
	if qi%2 == 0 {
		if err := untraced(); err != nil {
			return err
		}
	}
	start := len(r.t.spans)
	r.t.begin("knn")
	q, err := r.knnLayers(ctx, body, true)
	op := r.t.end()
	if err != nil {
		return err
	}
	var layers int64
	for _, s := range r.t.spans[start:] {
		switch s.Name {
		case "tsio.validate", "core.reduce", "dist.query", "index.search":
			layers += s.End - s.Start
		}
	}
	r.handlerMinus = append(r.handlerMinus, us(handler-time.Duration(layers)))
	r.opTraced = append(r.opTraced, us(op))
	if qi%2 == 1 {
		if err := untraced(); err != nil {
			return err
		}
	}
	return r.scatter(q)
}

// knnLayers is handleKNN's sequence of layer calls, a span each when
// traced.
func (r *replay) knnLayers(ctx context.Context, body []byte, traced bool) (dist.Query, error) {
	begin, end := r.spans(traced)
	var req knnRequestJSON
	begin("server.json_decode")
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	end()
	if err != nil {
		return dist.Query{}, err
	}
	q, err := r.prepare(req.Values, traced)
	if err != nil {
		return q, err
	}
	out, err := r.search(ctx, []dist.Query{q}, traced)
	if err != nil {
		return q, err
	}
	begin("server.json_encode")
	err = json.NewEncoder(io.Discard).Encode(knnResponseJSON{Results: toJSONResults(out[0])})
	end()
	return q, err
}

// checkKNN checks a knn response of the read replay, which runs before
// any write.
func (r *replay) checkKNN(qi, status int, body []byte) {
	r.c.attempted++
	var resp knnResponse
	if status != http.StatusOK || json.Unmarshal(body, &resp) != nil {
		r.c.fail("replay knn %d: status %d", qi, status)
		return
	}
	if msg := r.c.checkAnswer(qi, resp.Results, time.Now(), time.Now()); msg != "" {
		r.c.fail("replay knn %d: %s", qi, msg)
	}
}

// batchOp replays one batch: the handler on a recorder, then its layer
// calls with a span each.
func (r *replay) batchOp(ctx context.Context, bi int) error {
	body := r.b.batchBodies[bi]
	r.t.begin("server.batch_handler")
	rec := r.serve("POST", "/v1/knn/batch", body)
	r.t.end()
	r.c.attempted++
	var resp batchResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || len(resp.Answers) != batchSize {
		r.c.fail("replay batch %d: status %d", bi, rec.Code)
	} else {
		for j, a := range resp.Answers {
			if msg := r.c.checkAnswer(bi*batchSize+j, a.Results, time.Now(), time.Now()); msg != "" {
				r.c.fail("replay batch %d: %s", bi, msg)
			}
		}
	}

	r.t.begin("batch")
	defer r.t.end()
	var req batchRequestJSON
	r.t.begin("server.json_decode")
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	r.t.end()
	if err != nil {
		return err
	}
	qs := make([]dist.Query, len(req.Queries))
	for i, rq := range req.Queries {
		if qs[i], err = r.prepare(rq.Values, true); err != nil {
			return err
		}
	}
	out, err := r.search(ctx, qs, true)
	if err != nil {
		return err
	}
	answers := make([]knnResponse, len(out))
	for i := range out {
		answers[i] = knnResponse{Results: toJSONResults(out[i])}
	}
	r.t.begin("server.json_encode")
	err = json.NewEncoder(io.Discard).Encode(map[string]any{"answers": answers})
	r.t.end()
	return err
}

// writeStack is the benchmark's own sharded index and, on a durable
// workload, its own WAL, preloaded like the server.
type writeStack struct {
	idx    *index.ShardedIndex
	stores []*wal.Store
}

func (r *replay) openWriteStack(dir string) (*writeStack, error) {
	w := r.b.w
	st := &writeStack{}
	var err error
	st.idx, err = index.NewSharded(w.shards, func(int) (index.Index, error) {
		tree, err := index.NewDBCH("SAPLA", 2, 5)
		if err != nil {
			return nil, err
		}
		tree.SafeBound = true
		return tree, nil
	})
	if err != nil {
		return nil, err
	}
	if w.durable {
		fsys, err := wal.NewDirFS(dir)
		if err != nil {
			return nil, err
		}
		recs, err := wal.OpenSharded(fsys, w.shards, wal.Options{SyncEvery: 1})
		if err != nil {
			return nil, err
		}
		for _, rc := range recs {
			st.stores = append(st.stores, rc.Store)
		}
	}
	// Preload like set-up: the same batches in the same order, all logged
	// before any is applied.
	var batches [][]int
	for lo := 0; lo < w.preload; lo += preloadSize {
		var ids []int
		for id := lo; id < min(lo+preloadSize, w.preload); id++ {
			ids = append(ids, id)
		}
		batches = append(batches, ids)
	}
	reps := make([][]repr.Representation, len(batches))
	for i, ids := range batches {
		if reps[i], err = r.reduceAll(ids, false); err != nil {
			return st, err
		}
	}
	for _, ids := range batches {
		if err := r.log(st, ids, false); err != nil {
			return st, err
		}
	}
	for i, ids := range batches {
		if err := r.apply(st, ids, reps[i], false); err != nil {
			return st, err
		}
	}
	return st, nil
}

// close closes the stack's WAL streams.
func (st *writeStack) close() error {
	var err error
	for _, s := range st.stores {
		if serr := s.Close(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// spans returns the span hooks: the tracer's, or no-ops when untraced.
func (r *replay) spans(traced bool) (begin func(string), end func()) {
	if !traced {
		return func(string) {}, func() {}
	}
	return r.t.begin, func() { r.t.end() }
}

// reduceAll validates and reduces the series of ids, as handleIngestBatch
// does before it claims anything.
func (r *replay) reduceAll(ids []int, traced bool) ([]repr.Representation, error) {
	begin, end := r.spans(traced)
	reps := make([]repr.Representation, len(ids))
	for i, id := range ids {
		begin("tsio.validate")
		err := tsio.ValidateSeries(r.b.data.series[id])
		end()
		if err != nil {
			return nil, err
		}
		begin("core.reduce")
		reps[i], err = r.red.Reduce(r.b.data.series[id], m)
		end()
		if err != nil {
			return nil, err
		}
	}
	return reps, nil
}

// shardGroups splits positions in ids by owning shard.
func shardGroups(ids []int, shards int) [][]int {
	groups := make([][]int, shards)
	for i, id := range ids {
		si := index.ShardOf(id, shards)
		groups[si] = append(groups[si], i)
	}
	return groups
}

// log appends the ingest of ids to the owning shards' WALs, one group
// append per shard.
func (r *replay) log(st *writeStack, ids []int, traced bool) error {
	if st.stores == nil {
		return nil
	}
	begin, end := r.spans(traced)
	for si, group := range shardGroups(ids, len(st.stores)) {
		if len(group) == 0 {
			continue
		}
		batch := make([]wal.Series, len(group))
		for gi, i := range group {
			batch[gi] = wal.Series{ID: int64(ids[i]), Values: r.b.data.series[ids[i]]}
		}
		begin("wal.append")
		err := st.stores[si].AppendIngestBatch(batch)
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// apply inserts ids into the owning shards, one batch insert per shard.
func (r *replay) apply(st *writeStack, ids []int, reps []repr.Representation, traced bool) error {
	begin, end := r.spans(traced)
	for si, group := range shardGroups(ids, st.idx.NumShards()) {
		if len(group) == 0 {
			continue
		}
		entries := make([]*index.Entry, len(group))
		for gi, i := range group {
			entries[gi] = index.NewEntry(ids[i], r.b.data.series[ids[i]], reps[i])
		}
		begin("index.insert_batch")
		err := st.idx.Shard(si).InsertBatch(entries)
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// commit is one traced ingest batch: validate and reduce, then the WAL
// appends, then the inserts.
func (r *replay) commit(st *writeStack, ids []int) error {
	reps, err := r.reduceAll(ids, true)
	if err != nil {
		return err
	}
	if err := r.log(st, ids, true); err != nil {
		return err
	}
	return r.apply(st, ids, reps, true)
}

// writeOps replays the seeded writes: each ingest batch goes through the
// server's handler on a recorder and through the layer calls on the
// benchmark's own stack, followed by deletes of series it added.
func (r *replay) writeOps(dir string, handled *phase) (err error) {
	st, err := r.openWriteStack(dir)
	if st != nil {
		defer func() { err = errors.Join(err, st.close()) }()
	}
	if err != nil {
		return err
	}
	handled.t0 = time.Now()
	deletes := writeDeletes
	if r.b.w.ingestRate > 0 {
		deletes = int(r.b.w.deleteRate / r.b.w.ingestRate)
	}
	var added []int
	for i := 0; i < traceIngest; i++ {
		ids := r.b.data.fresh(ingestSize)
		body := r.b.data.ingestBody(ids)
		r.t.op++
		hr := record{kind: opIngest, ids: ids, start: time.Since(handled.t0)}
		r.t.begin("server.ingest_handler")
		rec := r.serve("POST", "/v1/ingest/batch", body)
		r.t.end()
		hr.end, hr.status, hr.body = time.Since(handled.t0), rec.Code, rec.Body.Bytes()
		handled.recs = append(handled.recs, hr)

		r.t.begin("ingest")
		var req ingestRequestJSON
		r.t.begin("server.json_decode")
		derr := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		r.t.end()
		if derr == nil {
			derr = r.commit(st, ids)
		}
		r.t.end()
		if derr != nil {
			return derr
		}
		added = append(added, ids...)
		for j := 0; j < deletes && len(added) > 0; j++ {
			id := added[0]
			added = added[1:]
			r.t.op++
			r.t.begin("delete")
			si := index.ShardOf(id, st.idx.NumShards())
			if st.stores != nil {
				r.t.begin("wal.append_delete")
				err := st.stores[si].AppendDelete(int64(id))
				r.t.end()
				if err != nil {
					return err
				}
			}
			r.t.begin("index.delete")
			ok := st.idx.Shard(si).Delete(id)
			r.t.end()
			r.t.end()
			if !ok {
				return fmt.Errorf("replay: delete of %d found nothing", id)
			}
		}
	}
	return nil
}

// parSink keeps the Dist_PAR timing loop from being optimised away.
var parSink float64

// parNS times dist.PARFlat over pairs of the workload's own query and
// stored-series representations, in ns per call.
func (r *replay) parNS() (float64, error) {
	var qs, cs []*dist.FlatLinear
	for i := 0; i < 64; i++ {
		rep, err := r.red.Reduce(r.b.data.queries[i], m)
		if err != nil {
			return 0, err
		}
		qs = append(qs, dist.FlattenLinear(rep))
	}
	for id := 0; id < min(256, r.b.w.preload); id++ {
		rep, err := r.red.Reduce(r.b.data.series[id], m)
		if err != nil {
			return 0, err
		}
		cs = append(cs, dist.FlattenLinear(rep))
	}
	var per []float64
	for rep := 0; rep < tracePARReps; rep++ {
		t0 := time.Now()
		for _, q := range qs {
			for _, c := range cs {
				parSink += dist.PARFlat(q, c)
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(qs)*len(cs)))
	}
	return median(per), nil
}

// traced is a run with tracing on: it reports the per-layer metrics.
func (b *bench) traced(ctx context.Context, spansPath string) (*result, error) {
	r := &replay{b: b, t: newTracer(), red: core.NewReducer(), ws: index.NewWorkspace(), c: newChecker(b.data, b.seed)}
	r.c.buildLifetimes(nil)
	var (
		n                  int
		parNS              float64
		work               searchStats
		queries            float64
		before, after      serverCounters
		retries, throttles uint64
		lr                 *loadResult
	)
	_, dir, err := b.session(ctx, func() error {
		idx := b.h.srv.Index()
		n = idx.Len()
		// Reads first, while the index is exactly what set-up built.
		for qi := 0; qi < traceKNN; qi++ {
			r.t.op++
			if err := r.knnOp(ctx, qi); err != nil {
				return err
			}
		}
		for bi := 0; bi < traceBatch; bi++ {
			r.t.op++
			if err := r.batchOp(ctx, bi); err != nil {
				return err
			}
		}
		var err error
		if parNS, err = r.parNS(); err != nil {
			return err
		}
		work, queries = r.work, float64(r.queries)

		// The untraced load, for the counters the server keeps.
		if before, err = b.serverMetrics(ctx); err != nil {
			return err
		}
		retries0, throttles0 := idx.ReadRetries(), idx.WriterThrottles()
		lr = b.phases(ctx)
		if after, err = b.serverMetrics(ctx); err != nil {
			return err
		}
		retries, throttles = idx.ReadRetries()-retries0, idx.WriterThrottles()-throttles0

		// The handler's ingests join the run's records, so that the
		// closing checks count them.
		handled := &phase{}
		err = r.writeOps(filepath.Join(b.workDir, "replay-wal"), handled)
		lr.order = append(lr.order, handled)
		return err
	})
	if err == nil {
		err = b.closeRun(ctx, lr, dir)
	}
	if dir != "" {
		err = errors.Join(err, os.RemoveAll(dir))
	}
	if err != nil {
		return nil, err
	}
	lr.check.attempted += r.c.attempted
	lr.check.failed += r.c.failed
	lr.check.problems = append(lr.check.problems, r.c.problems...)

	r.t.computeSelf()
	if err := r.t.write(spansPath, b.w.name, b.seed); err != nil {
		return nil, err
	}

	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	med := func(name string) float64 { return median(r.t.durations(name)) }
	put("server.knn_handler_us", med("server.knn_handler"), "us")
	put("server.batch_handler_us", med("server.batch_handler"), "us")
	put("server.ingest_handler_us", med("server.ingest_handler"), "us")
	put("server.self_us", median(r.handlerMinus), "us")
	put("server.json_decode_us", median(r.t.durationsUnder("server.json_decode", "knn")), "us")
	put("server.json_encode_us", median(r.t.durationsUnder("server.json_encode", "knn")), "us")
	put("server.shed", after.shed-before.shed, "count")
	put("net.overhead_us", median(r.netOverhead), "us")
	put("tsio.validate_us", med("tsio.validate"), "us")
	put("core.reduce_us", med("core.reduce"), "us")
	put("dist.filter_per_query", float64(work.Filtered)/queries, "count")
	put("dist.par_ns", parNS, "ns")
	put("index.search_us", median(r.t.durationsUnder("index.search", "knn")), "us")
	put("index.shard_search_us", med("index.shard_search"), "us")
	put("index.shard_skew", median(r.skew), "ratio")
	refined := float64(work.Measured) / queries
	put("index.refined_per_query", refined, "count")
	put("index.nodes_per_query", float64(work.NodesVisited)/queries, "count")
	put("index.pruning_power", refined/float64(n), "ratio")
	put("index.refine_yield", float64(k)/refined, "ratio")
	put("index.insert_batch_us", med("index.insert_batch"), "us")
	put("index.delete_us", med("index.delete"), "us")
	put("index.read_retries", float64(retries), "count")
	put("index.writer_throttles", float64(throttles), "count")
	put("index.reclaim_lag_max", float64(lr.lagMax), "count")
	put("index.compactions", after.compactions-before.compactions, "count")
	put("index.compact_ms", after.compactMs, "ms")
	put("wal.append_us", med("wal.append"), "us")
	_, nIngest := cut(lr.phaseWith(opIngest), opIngest)
	_, nDelete := cut(lr.phaseWith(opIngest), opDelete)
	acks := float64(nIngest + nDelete)
	fsyncs := 0.0
	if acks > 0 && b.w.durable {
		fsyncs = (after.fsyncs - before.fsyncs) / acks
	}
	put("wal.fsyncs_per_ack", fsyncs, "count")
	put("wal.snapshots", after.snapshots-before.snapshots, "count")
	put("wal.snapshot_ms", after.snapshotMs, "ms")
	perUser := 0.0
	if lr.durable.live > 0 {
		perUser = float64(lr.durable.walBytes) / float64(lr.durable.live*seriesLen*8)
	}
	put("wal.bytes_per_user_byte", perUser, "ratio")
	put("wal.recovery_s", lr.durable.recovery.Seconds(), "s")
	put("runtime.gc_cpu_frac", lr.rt.gcFrac(), "ratio")
	put("runtime.gc_pause_p99_us", lr.rt.pauseP99(), "us")
	put("loadgen.late_p99_ms", lr.lateP99(), "ms")
	// The p99s of single queries and ingests are reported here, without a
	// bound: on ingest_mixed they come from the open loop, where how hard
	// the few snapshot and compaction stalls of a run hit decides them, and
	// they spread 0.3–0.8 between runs of the same code.
	knn, _ := cut(lr.phaseWith(opKNN), opKNN)
	ingest, _ := cut(lr.phaseWith(opIngest), opIngest)
	put("knn_p99_ms", p99(knn), "ms")
	put("ingest_p99_ms", p99(ingest), "ms")
	put("fail_frac", float64(lr.check.failed)/float64(max(1, lr.check.attempted)), "ratio")
	put("trace.knn_op_us", median(r.opTraced), "us")
	put("trace.knn_op_untraced_us", median(r.opUntraced), "us")
	put("trace.overhead_frac", median(r.opTraced)/median(r.opUntraced)-1, "ratio")
	return b.finish(lr.check, out), nil
}

// durationsUnder returns the durations in µs of the spans named name whose
// parent is a span named parent.
func (t *tracer) durationsUnder(name, parent string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Parent >= 0 && t.spans[s.Parent].Name == parent {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// serverCounters are the cumulative counters read from GET /metrics.
type serverCounters struct {
	shed, compactions, snapshots, fsyncs float64
	compactMs, snapshotMs                float64
}

func (b *bench) serverMetrics(ctx context.Context) (serverCounters, error) {
	var c serverCounters
	status, body, err := b.h.do(ctx, "GET", "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return c, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	type hist struct {
		Count  float64 `json:"count"`
		MeanMs float64 `json:"mean_ms"`
	}
	var doc struct {
		Shed  map[string]float64 `json:"shed"`
		Index struct {
			Compactions float64 `json:"compactions"`
			CompactTime hist    `json:"compact_time"`
		} `json:"index"`
		Durability struct {
			WALFsync      hist    `json:"wal_fsync"`
			Snapshots     float64 `json:"snapshots"`
			SnapshotWrite hist    `json:"snapshot_write"`
		} `json:"durability"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return c, fmt.Errorf("GET /metrics: %w", err)
	}
	for _, v := range doc.Shed {
		c.shed += v
	}
	c.compactions, c.compactMs = doc.Index.Compactions, doc.Index.CompactTime.MeanMs
	c.fsyncs = doc.Durability.WALFsync.Count
	c.snapshots, c.snapshotMs = doc.Durability.Snapshots, doc.Durability.SnapshotWrite.MeanMs
	return c, nil
}
