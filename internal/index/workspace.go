package index

import (
	"math"
	"sync"

	"sapla/internal/dist"
	"sapla/internal/pqueue"
)

// Workspace holds the scratch state of one k-NN search: the best-first node
// frontier, the k-bounded result heap, and the result buffer the answers are
// drained into. Reusing one across queries makes the steady-state search
// allocation-free. Not safe for concurrent use: one per goroutine.
type Workspace struct {
	nodes *pqueue.Heap[treeNode] // R-tree / interface-based frontier
	ids   *pqueue.Heap[int32]    // DBCH arena frontier: ids never box into an interface
	// best is the k-bounded candidate heap, keyed by (exact distance,
	// entry ID). The ID tie key pins a canonical k-best even when distances
	// collide, so the answer set is a pure function of the stored entries —
	// independent of traversal order, and therefore identical whether the
	// entries live in one tree or are scattered across shards.
	best    *pqueue.TieHeap[*Entry]
	results []Result
	// cand accumulates per-shard candidate results during a scatter-gather
	// search; see ShardedIndex.KNNWith.
	cand []Result
	// The per-search representation-distance memo of a DBCH search:
	// memoVal[eid] is the query-to-entry distance of entry-arena id eid when
	// memoGen[eid] == gen. Each search bumps gen, which invalidates every
	// slot at once, so a hull end shared by several levels and its leaf is
	// evaluated once per search. 10 bytes per slot, sized to the largest
	// entry arena searched plus a fifth: at most 12 bytes per entry.
	memoGen []uint16
	memoVal []float64
	gen     uint16
}

// NewWorkspace returns an empty search workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
		nodes: pqueue.NewMinHeap[treeNode](),
		ids:   pqueue.NewMinHeap[int32](),
		best:  pqueue.NewMaxTieHeap[*Entry](),
	}
}

// offerBest feeds one measured candidate to the k-bounded best heap under the
// canonical (distance, ID) order and returns the updated k-th-best distance
// bound. A candidate strictly worse than the current worst is dropped; an
// exact distance tie is decided by the smaller entry ID.
//
//sapla:noalloc
func (ws *Workspace) offerBest(k int, exact float64, e *Entry) float64 {
	best := ws.best
	if best.Len() < k {
		best.Push(exact, int64(e.ID), e)
	} else if exact < best.PeekPriority() ||
		(exact == best.PeekPriority() && int64(e.ID) < best.PeekTie()) { //sapla:floateq exact tie: the ID tie-break must fire only on bit-equal distances
		best.Pop()
		best.Push(exact, int64(e.ID), e)
	}
	if best.Len() == k {
		return best.PeekPriority()
	}
	return math.Inf(1)
}

// resetMemo starts a new memo generation covering entry ids below n. The
// headroom keeps an index that grows by small ingest batches from
// reallocating the memo on every search.
//
//sapla:noalloc
func (ws *Workspace) resetMemo(n int) {
	if len(ws.memoGen) < n {
		// Stamps restart at zero, which no live generation uses: gen is
		// never zero after the increment below.
		n += n / 5
		ws.memoGen = make([]uint16, n)  //sapla:alloc amortised memo growth with the searched entry arena; steady state reuses it
		ws.memoVal = make([]float64, n) //sapla:alloc amortised memo growth with the searched entry arena; steady state reuses it
	}
	ws.gen++
	if ws.gen == 0 { // wrapped: clear the stamps so none aliases a new generation
		clear(ws.memoGen)
		ws.gen = 1
	}
}

// drainResults empties the best-heap into the reused result buffer in
// ascending (distance, ID) order. The returned slice aliases the workspace.
func (ws *Workspace) drainResults() []Result {
	n := ws.best.Len()
	if cap(ws.results) < n {
		ws.results = make([]Result, n) //sapla:alloc one-time growth of the reused result buffer; steady state never re-enters
	}
	ws.results = ws.results[:n]
	for i := n - 1; i >= 0; i-- {
		d, _, e := ws.best.Pop()
		ws.results[i] = Result{Entry: e, Dist: d}
	}
	return ws.results
}

// WorkspaceSearcher is implemented by indexes whose k-NN search can run on a
// caller-supplied Workspace. The returned slice aliases the workspace and
// stays valid only until the workspace's next search.
type WorkspaceSearcher interface {
	Index
	KNNWith(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, error)
}

// wsPool backs the plain Index.KNN entry points: they borrow a workspace,
// search, and copy the answers out, so even the convenience path allocates
// only its returned slice.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// pooledKNN runs a workspace search on a pooled workspace and returns a
// caller-owned copy of the results.
func pooledKNN(s WorkspaceSearcher, q dist.Query, k int) ([]Result, SearchStats, error) {
	ws := wsPool.Get().(*Workspace)
	res, stats, err := s.KNNWith(ws, q, k)
	var out []Result
	if len(res) > 0 {
		out = make([]Result, len(res))
		copy(out, res)
	}
	wsPool.Put(ws)
	return out, stats, err
}
