package index

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"sapla/internal/dist"
)

// ErrNoShards is returned when constructing a ShardedIndex with a
// non-positive shard count.
var ErrNoShards = errors.New("index: shard count must be >= 1")

// ShardOf maps a series ID to its shard with a splitmix64-style finalizer:
// a stable, seedless integer hash, so the same ID lands on the same shard in
// every process, every run and every recovery — the property the per-shard
// WAL layout depends on (a record must replay into the shard that logged
// it). Sequential IDs spread uniformly instead of clustering on one shard
// the way a plain modulo would under strided workloads.
func ShardOf(id, shards int) int {
	if shards <= 1 {
		return 0
	}
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(shards))
}

// ShardedIndex partitions entries across N independent ConcurrentIndex
// shards by ShardOf(entry ID). Each shard owns its own tree, write lock,
// published view and epoch counter, so writes to different shards proceed
// concurrently and a compacting shard never blocks the others; with
// DBCH-tree shards, reads are lock-free — a query scatters across every
// shard's current published view without touching any write lock, so even
// the shard whose writer is mid-mutation answers immediately. The gather
// runs through the canonical (distance, ID) merge. When the filter
// lower-bounds the exact distance, k-NN and range answers are therefore
// byte-identical to the single-shard answer for any shard count; Dist_PAR
// is not guaranteed to lower-bound, so with it a shard count can change
// which true neighbours a false dismissal hides.
//
// A k-NN scatter is seeded (see KNNWith): two lead shards are searched
// first, and the others prune above the k-th distance among the leads'
// answers. The schedule is fixed per query, so answers and SearchStats
// depend only on the query and the shard count, never on the worker count
// or on timing.
type ShardedIndex struct {
	shards []*ConcurrentIndex
}

// NewSharded builds a sharded index with shards partitions, calling newInner
// once per shard to construct its tree.
func NewSharded(shards int, newInner func(shard int) (Index, error)) (*ShardedIndex, error) {
	if shards < 1 {
		return nil, ErrNoShards
	}
	s := &ShardedIndex{shards: make([]*ConcurrentIndex, shards)}
	for i := range s.shards {
		inner, err := newInner(i)
		if err != nil {
			return nil, fmt.Errorf("index: shard %d: %w", i, err)
		}
		s.shards[i] = NewConcurrent(inner)
	}
	return s, nil
}

// NumShards returns the partition count.
func (s *ShardedIndex) NumShards() int { return len(s.shards) }

// Shard returns shard i for direct per-shard operations (per-shard batch
// commit, compaction, diagnostics).
func (s *ShardedIndex) Shard(i int) *ConcurrentIndex { return s.shards[i] }

// ShardFor returns the shard that owns id.
func (s *ShardedIndex) ShardFor(id int) *ConcurrentIndex {
	return s.shards[ShardOf(id, len(s.shards))]
}

// Insert implements Index, routing the entry to its shard.
func (s *ShardedIndex) Insert(e *Entry) error {
	return s.ShardFor(e.ID).Insert(e)
}

// InsertBatch splits the batch by shard and commits the per-shard groups
// concurrently, one exclusive lock acquisition and one epoch advance per
// touched shard. Entries keep their relative order within each shard, so the
// resulting trees are deterministic functions of the batch contents.
func (s *ShardedIndex) InsertBatch(entries []*Entry) error {
	if len(entries) == 0 {
		return nil
	}
	if len(s.shards) == 1 {
		return s.shards[0].InsertBatch(entries)
	}
	groups := make([][]*Entry, len(s.shards))
	for _, e := range entries {
		si := ShardOf(e.ID, len(s.shards))
		groups[si] = append(groups[si], e)
	}
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for si := range groups {
		if len(groups[si]) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			errs[si] = s.shards[si].InsertBatch(groups[si])
		}(si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the entry with the given ID from its shard.
func (s *ShardedIndex) Delete(id int) bool {
	return s.ShardFor(id).Delete(id)
}

// Len implements Index as the sum of the shard sizes.
func (s *ShardedIndex) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Epoch returns the sum of the per-shard mutation epochs: any mutation
// anywhere advances it, and equal sums across two observations of an
// otherwise-quiescent index promise no shard changed between them.
func (s *ShardedIndex) Epoch() uint64 {
	var e uint64
	for _, sh := range s.shards {
		e += sh.Epoch()
	}
	return e
}

// Compact offers every shard a rebuild at the given fragmentation threshold
// and reports how many shards actually rebuilt. Shards compact one at a
// time here, and each rebuild locks only its own shard — queries and writes
// on the other shards proceed untouched, which is the point of sharding the
// arena maintenance.
func (s *ShardedIndex) Compact(minFragmentation float64) int {
	n := 0
	for _, sh := range s.shards {
		if sh.Compact(minFragmentation) {
			n++
		}
	}
	return n
}

// SetReclaimBound sets every shard's retired-slot ceiling past which that
// shard's writer throttles to let epoch-based reclamation catch up. Zero or
// negative disables throttling.
func (s *ShardedIndex) SetReclaimBound(n int) {
	for _, sh := range s.shards {
		sh.SetReclaimBound(n)
	}
}

// ReadRetries sums the per-shard counts of lock-free reads that observed a
// concurrent publish mid-traversal and re-ran.
func (s *ShardedIndex) ReadRetries() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.ReadRetries()
	}
	return n
}

// WriterThrottles sums the per-shard counts of writer backoff rounds spent
// waiting for reclamation to drop below the bound.
func (s *ShardedIndex) WriterThrottles() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.WriterThrottles()
	}
	return n
}

// ReclaimLag sums the per-shard counts of retired-but-unreclaimed arena
// slots — the memory the copy-on-write scheme currently holds for in-flight
// or stalled readers.
func (s *ShardedIndex) ReclaimLag() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.ReclaimLag()
	}
	return n
}

// Fragmentation reports the entry-weighted mean fragmentation across shards
// (the fraction of dead arena slots a full compaction would reclaim).
func (s *ShardedIndex) Fragmentation() float64 {
	var frag, weight float64
	for _, sh := range s.shards {
		sh.View(func(inner Index) {
			if comp, ok := inner.(Compactor); ok {
				w := float64(inner.Len()) + 1 // +1 keeps empty shards from dividing by zero
				frag += comp.Fragmentation() * w
				weight += w
			}
		})
	}
	if weight == 0 { //sapla:floateq exact zero test: weight is a sum of counts, never a rounded computation
		return 0
	}
	return frag / weight
}

// addStats accumulates per-shard search work into a query's aggregate.
func addStats(total *SearchStats, st SearchStats) {
	total.Measured += st.Measured
	total.Filtered += st.Filtered
	total.NodesVisited += st.NodesVisited
	total.DistEvals += st.DistEvals
}

// leadShards is how many shards a k-NN scatter searches unseeded before the
// rest: the first two. Two leads keep two workers busy while the seed is
// computed; a single lead idled one and made single queries slower.
const leadShards = 2

// seedBound is the starting bound of a query's non-lead shards: the k-th
// smallest distance among the two lead shards' answers a and b (each in
// ascending order), or +Inf when they hold fewer than k results together.
// Those k entries exist, so the global k-th distance is no larger.
//
//sapla:noalloc
func seedBound(a, b []Result, k int) float64 {
	if k <= 0 || len(a)+len(b) < k {
		return math.Inf(1)
	}
	i, j := 0, 0
	for i+j < k-1 {
		if j == len(b) || (i < len(a) && a[i].Dist <= b[j].Dist) {
			i++
		} else {
			j++
		}
	}
	if j == len(b) || (i < len(a) && a[i].Dist <= b[j].Dist) {
		return a[i].Dist
	}
	return b[j].Dist
}

// mergeTopK selects the k best candidates under the canonical
// (distance, ID) order. The k-bounded tie heap keeps exactly the k smallest
// candidates seen regardless of feed order, so the merged answer equals what
// one tree holding every entry would return. The returned slice aliases ws.
//
//sapla:noalloc
func mergeTopK(ws *Workspace, k int, cand []Result) []Result {
	ws.best.Reset()
	for i := range cand {
		ws.offerBest(k, cand[i].Dist, cand[i].Entry)
	}
	return ws.drainResults()
}

// KNN implements Index over all shards.
func (s *ShardedIndex) KNN(q dist.Query, k int) ([]Result, SearchStats, error) {
	return pooledKNN(s, q, k)
}

// KNNWith implements WorkspaceSearcher by sequential, seeded scatter-gather.
// The lead shards are searched first; every other shard then starts from
// seedBound of the leads' answers and prunes strictly above it, so
// (distance, ID) ties at the bound survive. A shard's members of the global
// top-k lie within that bound, so when the filter lower-bounds, every shard
// still returns its contribution to the global top-k, and the canonical
// (distance, ID) merge of the gathered candidates loses nothing. Every shard
// search runs against that shard's published view (lock-free for DBCH-tree
// shards); BatchKNN runs the same schedule in parallel.
//
//sapla:noalloc
func (s *ShardedIndex) KNNWith(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, error) {
	if len(s.shards) == 1 {
		return s.shards[0].KNNWith(ws, q, k)
	}
	var stats SearchStats
	ws.cand = ws.cand[:0]
	seed, lead0 := math.Inf(1), 0
	for si, sh := range s.shards {
		if si == leadShards {
			seed = seedBound(ws.cand[:lead0], ws.cand[lead0:], k)
		}
		res, st, err := sh.knnBounded(ws, q, k, seed)
		if err != nil {
			return nil, stats, err
		}
		if si == 0 {
			lead0 = len(res)
		}
		addStats(&stats, st)
		ws.cand = append(ws.cand, res...) //sapla:alloc amortised growth of the reused gather buffer; Reset keeps capacity
	}
	return mergeTopK(ws, k, ws.cand), stats, nil
}

// Range implements RangeSearcher by scatter-gather: per-shard answers are
// concatenated and sorted under the canonical (distance, ID) order, which is
// exactly the order a single tree would return.
func (s *ShardedIndex) Range(q dist.Query, radius float64) ([]Result, SearchStats, error) {
	var stats SearchStats
	var out []Result
	for _, sh := range s.shards {
		res, st, err := sh.Range(q, radius)
		if err != nil {
			return nil, stats, err
		}
		addStats(&stats, st)
		out = append(out, res...)
	}
	sortResults(out)
	return out, stats, nil
}

// batchKNN is the scatter-gather arm of BatchKNNContext: the work-stealing
// pool claims (query, shard) tasks instead of whole queries, so one slow
// shard of one query never idles a worker, and a batch saturates every core
// even with fewer queries than GOMAXPROCS. It runs KNNWith's seeded
// schedule in two phases separated by a barrier: first every query's lead
// shards, unseeded, then every other shard, seeded from that query's lead
// answers. Within a phase tasks are claimed shard-major, so consecutive
// claims walk the same shard's tree. Per-task partials land in
// pre-assigned slots of one buffer and are merged per query afterwards
// under the canonical (distance, ID) order — answers and stats are
// identical to KNNWith's for any worker count. The index has at least two
// shards: BatchKNNContext searches a single shard directly.
func (s *ShardedIndex) batchKNN(ctx context.Context, queries []dist.Query, k, workers int) ([][]Result, []SearchStats, error) {
	nshards, nq := len(s.shards), len(queries)
	out := make([][]Result, nq)
	stats := make([]SearchStats, nq)
	if nq == 0 {
		return out, stats, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tasks := nq * nshards
	if workers > tasks {
		workers = tasks
	}
	slots := max(k, 0)

	// Task t answers query t/nshards on shard t%nshards into
	// partial[t*slots : t*slots+partLen[t]].
	partial := make([]Result, tasks*slots)
	partLen := make([]int, tasks)
	partStats := make([]SearchStats, tasks)
	errs := make([]error, tasks)
	taskDone := make([]bool, tasks)
	slot := func(t int) []Result { return partial[t*slots : t*slots+partLen[t]] }
	// runPhase claims the tasks of shards [lo, hi) shard-major until they
	// run out or ctx expires. A seeded task reads only its query's lead
	// slots, which the barrier between the phases orders before it.
	runPhase := func(ws *Workspace, next *atomic.Int64, lo, hi int) {
		n := nq * (hi - lo)
		for ctx.Err() == nil {
			c := int(next.Add(1)) - 1
			if c >= n {
				return
			}
			qi, si := c%nq, lo+c/nq
			bound := math.Inf(1)
			if si >= leadShards {
				bound = seedBound(slot(qi*nshards), slot(qi*nshards+1), k)
			}
			t := qi*nshards + si
			res, st, err := s.shards[si].knnBounded(ws, queries[qi], k, bound)
			partLen[t] = copy(partial[t*slots:(t+1)*slots], res)
			partStats[t], errs[t] = st, err
			taskDone[t] = true
		}
	}
	var nextLead, nextRest atomic.Int64
	var leadsDone, wg sync.WaitGroup
	leadsDone.Add(workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			scratch := wsPool.Get().(*Workspace)
			defer wsPool.Put(scratch)
			runPhase(scratch, &nextLead, 0, leadShards)
			leadsDone.Done()
			leadsDone.Wait()
			runPhase(scratch, &nextRest, leadShards, nshards)
		}()
	}
	wg.Wait()

	// Gather: merge every query whose shard set completed. On cancellation
	// the merged queries stay valid, unfinished ones keep zero slots — the
	// same contract as the single-index batch. Answers share one backing
	// array, each capped at its length so an append to one never reaches
	// the next.
	answers := make([]Result, nq*slots)
	merge := wsPool.Get().(*Workspace)
	completed := 0
	var firstErr error
	for qi := range queries {
		all := true
		var qerr error
		merge.best.Reset()
		for si := 0; si < nshards; si++ {
			t := qi*nshards + si
			if !taskDone[t] {
				all = false
				break
			}
			if errs[t] != nil && qerr == nil {
				qerr = errs[t]
			}
			addStats(&stats[qi], partStats[t])
			for _, r := range slot(t) {
				merge.offerBest(k, r.Dist, r.Entry)
			}
		}
		if !all {
			stats[qi] = SearchStats{}
			continue
		}
		completed++
		if qerr != nil {
			if firstErr == nil {
				firstErr = qerr
			}
			continue
		}
		if res := merge.drainResults(); len(res) > 0 {
			lo := qi * slots
			hi := lo + copy(answers[lo:lo+slots], res)
			out[qi] = answers[lo:hi:hi]
		}
	}
	wsPool.Put(merge)

	if err := ctx.Err(); err != nil && completed < nq {
		return out, stats, fmt.Errorf("%w after %d of %d queries: %w",
			ErrBatchCanceled, completed, nq, err)
	}
	return out, stats, firstErr
}
