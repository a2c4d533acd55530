package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"sapla/internal/core"
	"sapla/internal/dist"
	"sapla/internal/index"
	"sapla/internal/repr"
	"sapla/internal/ts"
	"sapla/internal/tsio"
	"sapla/internal/wal"
)

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //sapla:errok status line already sent; a failed write means the client went away
}

// writeErr writes a JSON error body.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes the request body into v, translating size-limit and
// syntax failures into client errors. It reports whether decoding succeeded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return false
	}
	return true
}

// reduce runs the configured reduction. SAPLA goes through the pooled
// allocation-free Reducer; baseline methods get a fresh instance (their
// constructors are cheap and their scratch state is not goroutine-safe).
func (s *Server) reduce(values ts.Series) (repr.Representation, error) {
	if s.cfg.Method == "SAPLA" {
		red := s.reducers.Get().(*core.Reducer)
		defer s.reducers.Put(red)
		return red.Reduce(values, s.cfg.M)
	}
	m, err := methodFor(s.cfg.Method)
	if err != nil {
		return nil, err
	}
	return m.Reduce(values, s.cfg.M)
}

// unclaim releases an ID claim after a failed commit so the ID becomes
// ingestable again. Called without any shard mu held.
func (s *Server) unclaim(ids ...int) {
	s.bookMu.Lock()
	for _, id := range ids {
		delete(s.claimed, id)
	}
	s.bookMu.Unlock()
}

// checkSeries validates values against the index's fixed series length.
// A zero fixed length (nothing ingested yet) admits any valid series.
func (s *Server) checkSeries(values ts.Series) error {
	if err := tsio.ValidateSeries(values); err != nil {
		return err
	}
	if n := s.seriesLen(); n != 0 && len(values) != n {
		return fmt.Errorf("series length %d does not match index series length %d", len(values), n)
	}
	return nil
}

// ingestRequest is the POST /v1/ingest body.
type ingestRequest struct {
	// ID is optional; omitted IDs are assigned by the server.
	ID     *int      `json:"id"`
	Values ts.Series `json:"values"`
}

// ingestResponse reports the stored entry.
type ingestResponse struct {
	ID             int             `json:"id"`
	IndexSize      int             `json:"index_size"`
	Epoch          uint64          `json:"epoch"`
	Representation json.RawMessage `json:"representation,omitempty"`
}

// handleIngest reduces one raw series and inserts it into the index.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.checkSeries(req.Values); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	rep, err := s.reduce(req.Values)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reduce: %v", err)
		return
	}

	// ID uniqueness is cross-shard, so the claim happens under bookMu: two
	// racing ingests cannot claim one ID or disagree on the series length.
	// The claim also covers in-flight ingests — a concurrent explicit-ID
	// ingest of the same ID conflicts even before the first one commits.
	s.bookMu.Lock()
	if s.n != 0 && len(req.Values) != s.n {
		n := s.n
		s.bookMu.Unlock()
		writeErr(w, http.StatusBadRequest,
			"series length %d does not match index series length %d", len(req.Values), n)
		return
	}
	var id int
	if req.ID != nil {
		id = *req.ID
		if s.claimed[id] {
			s.bookMu.Unlock()
			writeErr(w, http.StatusConflict, "id %d already exists", id)
			return
		}
		if id >= s.nextID {
			s.nextID = id + 1
		}
	} else {
		id = s.nextID
		s.nextID++
	}
	s.claimed[id] = true
	// The length pins at claim time, not commit time, so two racing first
	// ingests of different lengths cannot both pass the check above.
	s.n = len(req.Values)
	s.bookMu.Unlock()

	// Commit on the owning shard. Durability before acknowledgement: the
	// WAL record must be appended (and, at SyncEvery=1, fsync'd) to the
	// shard's stream before the insert becomes visible. A failed append
	// rejects the request with nothing to undo but the claim; a failed
	// insert after a successful append is undone by a compensating delete
	// record so replay converges to the served state.
	sh := s.shardFor(id)
	sh.mu.Lock()
	if sh.store != nil {
		if err := sh.store.AppendIngest(int64(id), req.Values); err != nil {
			sh.mu.Unlock()
			s.unclaim(id)
			writeErr(w, http.StatusServiceUnavailable, "wal append: %v", err)
			return
		}
	}
	if err := s.idx.Insert(index.NewEntry(id, req.Values, rep)); err != nil {
		if sh.store != nil {
			_ = sh.store.AppendDelete(int64(id)) //sapla:volatile compensating append after a failed insert: the mutation it follows never took effect, and a broken store refuses every later append anyway
		}
		sh.mu.Unlock()
		s.unclaim(id)
		writeErr(w, http.StatusInternalServerError, "insert: %v", err)
		return
	}
	sh.ids[id] = req.Values
	sh.mu.Unlock()

	s.metrics.ingested.Add(1)
	resp := ingestResponse{ID: id, IndexSize: s.idx.Len(), Epoch: s.idx.Epoch()}
	if r.URL.Query().Get("include_rep") == "1" {
		if raw, err := tsio.MarshalRepresentation(rep); err == nil {
			resp.Representation = raw
		}
	}
	writeJSON(w, http.StatusCreated, resp)
}

// ingestBatchRequest is the POST /v1/ingest/batch body. Items reuse the
// single-ingest shape, so per-item IDs stay optional.
type ingestBatchRequest struct {
	Series []ingestRequest `json:"series"`
}

// ingestBatchResponse reports the stored entries; IDs[i] answers Series[i].
type ingestBatchResponse struct {
	IDs       []int  `json:"ids"`
	IndexSize int    `json:"index_size"`
	Epoch     uint64 `json:"epoch"`
}

// handleIngestBatch reduces many raw series and inserts them as one batch:
// one WAL group append (one fsync at SyncEvery=1), one exclusive index lock
// acquisition, one epoch. The batch is atomic — any invalid series, duplicate
// ID or append failure rejects the whole request with nothing applied.
func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	var req ingestBatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Series) == 0 {
		writeErr(w, http.StatusBadRequest, "batch needs at least one series")
		return
	}
	if len(req.Series) > s.cfg.MaxBatch {
		writeErr(w, http.StatusBadRequest,
			"batch of %d exceeds limit %d", len(req.Series), s.cfg.MaxBatch)
		return
	}
	// Validate and reduce everything before taking the lock: reduction is the
	// expensive part and needs no bookkeeping state. The loop doubles as the
	// taint barrier — values and reqIDs hold only items that passed
	// checkSeries, and every phase below works from these extracts, never
	// from the raw request again.
	reps := make([]repr.Representation, len(req.Series))
	values := make([]ts.Series, len(req.Series))
	reqIDs := make([]*int, len(req.Series))
	for i, item := range req.Series {
		if err := s.checkSeries(item.Values); err != nil {
			writeErr(w, http.StatusBadRequest, "series %d: %v", i, err)
			return
		}
		values[i] = item.Values
		reqIDs[i] = item.ID
		if len(values[i]) != len(values[0]) {
			writeErr(w, http.StatusBadRequest,
				"series %d length %d does not match series 0 length %d",
				i, len(values[i]), len(values[0]))
			return
		}
		rep, err := s.reduce(values[i])
		if err != nil {
			writeErr(w, http.StatusBadRequest, "series %d: reduce: %v", i, err)
			return
		}
		reps[i] = rep
	}

	// Same commit discipline as handleIngest, batched and sharded: every ID
	// resolves and claims under one bookMu hold (duplicates reject the whole
	// request with nothing claimed), then the batch splits by owning shard
	// and the per-shard groups commit concurrently — one WAL group append
	// (one fsync at SyncEvery=1), one exclusive index lock acquisition and
	// one epoch advance per touched shard, with each shard's WAL append
	// strictly before its inserts become visible.
	s.bookMu.Lock()
	if s.n != 0 && len(values[0]) != s.n {
		n := s.n
		s.bookMu.Unlock()
		writeErr(w, http.StatusBadRequest,
			"series length %d does not match index series length %d", len(values[0]), n)
		return
	}
	// Every explicit ID must be free — against committed series, in-flight
	// claims and the batch itself — before anything claims, so a conflict
	// rejects with nothing to unwind.
	ids := make([]int, len(values))
	inBatch := make(map[int]bool, len(values))
	for _, rid := range reqIDs {
		if rid == nil {
			continue
		}
		id := *rid
		if s.claimed[id] || inBatch[id] {
			s.bookMu.Unlock()
			writeErr(w, http.StatusConflict, "id %d already exists", id)
			return
		}
		inBatch[id] = true
	}
	for i, rid := range reqIDs {
		if rid != nil {
			ids[i] = *rid
			if ids[i] >= s.nextID {
				s.nextID = ids[i] + 1
			}
		} else {
			ids[i] = s.nextID
			s.nextID++
		}
		s.claimed[ids[i]] = true
	}
	s.n = len(values[0])
	s.bookMu.Unlock()

	// Split by owning shard, preserving batch order within each group so
	// the per-shard trees are deterministic functions of the request.
	nshards := len(s.shards)
	groupIdx := make([][]int, nshards) // positions in req.Series per shard
	for i, id := range ids {
		si := index.ShardOf(id, nshards)
		groupIdx[si] = append(groupIdx[si], i)
	}
	shardErrs := make([]error, nshards)
	walErr := make([]bool, nshards)
	var wg sync.WaitGroup
	for si := range groupIdx {
		if len(groupIdx[si]) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sh := s.shards[si]
			group := groupIdx[si]
			sh.mu.Lock()
			defer sh.mu.Unlock()
			if sh.store != nil {
				batch := make([]wal.Series, len(group))
				for gi, pos := range group {
					batch[gi] = wal.Series{ID: int64(ids[pos]), Values: values[pos]}
				}
				if err := sh.store.AppendIngestBatch(batch); err != nil {
					shardErrs[si] = err
					walErr[si] = true
					return
				}
			}
			entries := make([]*index.Entry, len(group))
			for gi, pos := range group {
				entries[gi] = index.NewEntry(ids[pos], values[pos], reps[pos])
			}
			if err := s.idx.Shard(si).InsertBatch(entries); err != nil {
				// Roll this shard back: a compensating delete record per ID,
				// then the index removal, so replay converges to the served
				// (empty-of-this-group) state.
				for _, pos := range group {
					if sh.store != nil {
						_ = sh.store.AppendDelete(int64(ids[pos])) //sapla:volatile compensating append after a failed batch insert: the mutation it follows never became visible, and a broken store refuses every later append anyway
					}
					s.idx.Shard(si).Delete(ids[pos])
				}
				shardErrs[si] = err
				return
			}
			for _, pos := range group {
				sh.ids[ids[pos]] = values[pos]
			}
		}(si)
	}
	wg.Wait()
	var commitErr error
	walFailed := false
	for si, err := range shardErrs {
		if err != nil {
			commitErr = err
			walFailed = walErr[si]
			break
		}
	}
	if commitErr != nil {
		// Undo the shards that did commit so the batch rejects wholesale.
		// During this unwind another shard's entries are transiently visible
		// to searches — multi-shard batch atomicity is over acknowledgement
		// (all-or-nothing at the API), not over in-flight reads.
		for si := range groupIdx {
			if len(groupIdx[si]) == 0 || shardErrs[si] != nil {
				continue
			}
			sh := s.shards[si]
			sh.mu.Lock()
			for _, pos := range groupIdx[si] {
				if sh.store != nil {
					_ = sh.store.AppendDelete(int64(ids[pos])) //sapla:volatile compensating append while rejecting the whole batch: the ingest it undoes is never acknowledged, and a broken store refuses every later append anyway
				}
				s.idx.Shard(si).Delete(ids[pos])
				delete(sh.ids, ids[pos])
			}
			sh.mu.Unlock()
		}
		s.unclaim(ids...)
		if walFailed {
			writeErr(w, http.StatusServiceUnavailable, "wal append: %v", commitErr)
		} else {
			writeErr(w, http.StatusInternalServerError, "insert batch: %v", commitErr)
		}
		return
	}

	s.metrics.ingested.Add(int64(len(ids)))
	writeJSON(w, http.StatusCreated, ingestBatchResponse{
		IDs: ids, IndexSize: s.idx.Len(), Epoch: s.idx.Epoch(),
	})
}

// resultJSON is one k-NN / range answer.
type resultJSON struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

// statsJSON mirrors index.SearchStats' public counters; DistEvals, a
// kernel-work counter for benchmarks, is not part of the API.
type statsJSON struct {
	Measured     int `json:"measured"`
	Filtered     int `json:"filtered"`
	NodesVisited int `json:"nodes_visited"`
}

func toResults(res []index.Result) []resultJSON {
	out := make([]resultJSON, len(res))
	for i, r := range res {
		out[i] = resultJSON{ID: r.Entry.ID, Dist: r.Dist}
	}
	return out
}

func toStats(st index.SearchStats) statsJSON {
	return statsJSON{Measured: st.Measured, Filtered: st.Filtered, NodesVisited: st.NodesVisited}
}

// knnRequest is the POST /v1/knn body.
type knnRequest struct {
	Values ts.Series `json:"values"`
	K      int       `json:"k"`
}

// knnResponse answers one query.
type knnResponse struct {
	Epoch   uint64       `json:"epoch"`
	Results []resultJSON `json:"results"`
	Stats   statsJSON    `json:"stats"`
}

// prepareQuery validates and reduces one query series.
func (s *Server) prepareQuery(values ts.Series) (dist.Query, error) {
	if err := s.checkSeries(values); err != nil {
		return dist.Query{}, err
	}
	rep, err := s.reduce(values)
	if err != nil {
		return dist.Query{}, fmt.Errorf("reduce: %w", err)
	}
	return dist.NewQuery(values, rep), nil
}

// knnStatus maps a batch search error to a status code: a cancellation
// (client gone, or the request timeout fired — the TimeoutHandler then owns
// the response anyway) is the client's doing, everything else is ours.
func knnStatus(err error) int {
	if errors.Is(err, index.ErrBatchCanceled) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// checkK bounds k.
func (s *Server) checkK(k int) error {
	if k <= 0 || k > s.cfg.MaxK {
		return fmt.Errorf("k must be in [1, %d], got %d", s.cfg.MaxK, k)
	}
	return nil
}

// handleKNN answers one k-NN query through the BatchKNN pool, so single
// queries and batches share one code path (and one workspace pool).
func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	var req knnRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.checkK(req.K); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	q, err := s.prepareQuery(req.Values)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	size := s.idx.Len()
	out, stats, err := index.BatchKNNContext(r.Context(), s.idx, []dist.Query{q}, req.K, s.cfg.Workers)
	if err != nil {
		writeErr(w, knnStatus(err), "knn: %v", err)
		return
	}
	s.metrics.addSearch(1, stats[0].Measured, stats[0].Filtered, stats[0].NodesVisited, size)
	writeJSON(w, http.StatusOK, knnResponse{
		Epoch:   s.idx.Epoch(),
		Results: toResults(out[0]),
		Stats:   toStats(stats[0]),
	})
}

// batchRequest is the POST /v1/knn/batch body.
type batchRequest struct {
	K       int `json:"k"`
	Queries []struct {
		Values ts.Series `json:"values"`
	} `json:"queries"`
}

// batchResponse answers a batch; Answers[i] corresponds to Queries[i].
type batchResponse struct {
	Epoch   uint64      `json:"epoch"`
	Answers []knnAnswer `json:"answers"`
	Totals  statsJSON   `json:"totals"`
}

// knnAnswer is one query's slot in a batch response.
type knnAnswer struct {
	Results []resultJSON `json:"results"`
	Stats   statsJSON    `json:"stats"`
}

// handleKNNBatch answers many k-NN queries concurrently on the work-stealing
// BatchKNN pool. Each (query, shard) search reads one consistent snapshot
// of that shard; the shards' snapshots are loaded independently, so a query
// is not a global cut across shards, and concurrent writes can land between
// one shard's read and another's.
func (s *Server) handleKNNBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.checkK(req.K); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, http.StatusBadRequest, "batch needs at least one query")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		writeErr(w, http.StatusBadRequest,
			"batch of %d exceeds limit %d", len(req.Queries), s.cfg.MaxBatch)
		return
	}
	queries := make([]dist.Query, len(req.Queries))
	for i, rq := range req.Queries {
		q, err := s.prepareQuery(rq.Values)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
		queries[i] = q
	}
	size := s.idx.Len()
	out, stats, err := index.BatchKNNContext(r.Context(), s.idx, queries, req.K, s.cfg.Workers)
	if err != nil {
		writeErr(w, knnStatus(err), "batch knn: %v", err)
		return
	}
	resp := batchResponse{Epoch: s.idx.Epoch(), Answers: make([]knnAnswer, len(out))}
	var tm, tf, tn int
	for i := range out {
		resp.Answers[i] = knnAnswer{Results: toResults(out[i]), Stats: toStats(stats[i])}
		tm += stats[i].Measured
		tf += stats[i].Filtered
		tn += stats[i].NodesVisited
	}
	resp.Totals = statsJSON{Measured: tm, Filtered: tf, NodesVisited: tn}
	s.metrics.addSearch(len(queries), tm, tf, tn, size)
	writeJSON(w, http.StatusOK, resp)
}

// rangeRequest is the POST /v1/range body.
type rangeRequest struct {
	Values ts.Series `json:"values"`
	Radius float64   `json:"radius"`
}

// handleRange answers one ε-range query.
func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	var req rangeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Radius < 0 {
		writeErr(w, http.StatusBadRequest, "radius must be >= 0, got %g", req.Radius)
		return
	}
	q, err := s.prepareQuery(req.Values)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	size := s.idx.Len()
	res, stats, err := s.idx.Range(q, req.Radius)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "range: %v", err)
		return
	}
	s.metrics.addSearch(1, stats.Measured, stats.Filtered, stats.NodesVisited, size)
	writeJSON(w, http.StatusOK, knnResponse{
		Epoch:   s.idx.Epoch(),
		Results: toResults(res),
		Stats:   toStats(stats),
	})
}

// deleteResponse reports a removal.
type deleteResponse struct {
	ID        int    `json:"id"`
	Deleted   bool   `json:"deleted"`
	IndexSize int    `json:"index_size"`
	Epoch     uint64 `json:"epoch"`
}

// handleDelete removes one series by ID.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad id %q", r.PathValue("id"))
		return
	}
	// The whole removal runs on the owning shard: presence check, WAL
	// append (same WAL-before-acknowledge discipline as ingest), index
	// removal and bookkeeping under one shard mu hold. The claim release
	// nests bookMu inside the shard mu — the one sanctioned nesting
	// direction (see shardState).
	sh := s.shardFor(id)
	sh.mu.Lock()
	_, present := sh.ids[id]
	if present {
		if sh.store != nil {
			if err := sh.store.AppendDelete(int64(id)); err != nil {
				sh.mu.Unlock()
				writeErr(w, http.StatusServiceUnavailable, "wal append: %v", err)
				return
			}
		}
		if !s.idx.Delete(id) {
			sh.mu.Unlock()
			writeErr(w, http.StatusInternalServerError,
				"id %d tracked but not found in index", id)
			return
		}
		delete(sh.ids, id)
		s.bookMu.Lock()
		delete(s.claimed, id)
		s.bookMu.Unlock()
	}
	sh.mu.Unlock()
	if !present {
		writeErr(w, http.StatusNotFound, "id %d not found", id)
		return
	}
	s.metrics.deleted.Add(1)
	writeJSON(w, http.StatusOK, deleteResponse{
		ID: id, Deleted: true, IndexSize: s.idx.Len(), Epoch: s.idx.Epoch(),
	})
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"index_size": s.idx.Len(),
		"epoch":      s.idx.Epoch(),
	})
}
