package index

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sapla/internal/dist"
	"sapla/internal/reduce"
	"sapla/internal/ts"
)

// newShardedTrees builds an empty sharded index of SafeBound DBCH-trees for
// method.
func newShardedTrees(t testing.TB, method string, shards int) *ShardedIndex {
	t.Helper()
	s, err := NewSharded(shards, func(int) (Index, error) {
		tree, err := NewDBCH(method, 2, 5)
		if err != nil {
			return nil, err
		}
		tree.SafeBound = true
		return tree, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// noisyQueries builds nq queries: stored series plus Gaussian noise of
// standard deviation sigma (near neighbours, as in a lookup service)
// alternating with fresh random walks (far neighbours).
func noisyQueries(t testing.TB, meth reduce.Method, rng *rand.Rand, entries []*Entry, nq int, sigma float64) []dist.Query {
	t.Helper()
	out := make([]dist.Query, nq)
	for i := range out {
		n := len(entries[0].Raw)
		raw := randWalk(rng, n)
		if i%2 == 0 {
			src := entries[rng.Intn(len(entries))].Raw
			for j := range raw {
				raw[j] = src[j] + sigma*rng.NormFloat64()
			}
		}
		rep, err := meth.Reduce(raw, 12)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = dist.NewQuery(raw, rep)
	}
	return out
}

func oracleAnswers(t *testing.T, entries []*Entry, queries []dist.Query, k int) [][]Result {
	t.Helper()
	scan := NewLinearScan()
	for _, e := range entries {
		if err := scan.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]Result, len(queries))
	for i, q := range queries {
		res, _, err := scan.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	return want
}

// TestShardedKNNMatchesLinearScan pins the seeded scatter to the oracle.
// PAA's filter lower-bounds the Euclidean distance and, as a metric, makes
// the SafeBound node bound a true lower bound, so no shard may dismiss a
// true neighbour: every shard count and worker count must return the linear
// scan's answer byte for byte.
func TestShardedKNNMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	meth := buildMethod(t, "PAA")
	entries := makeEntries(t, meth, rng, 400, 128, 12)
	queries := noisyQueries(t, meth, rng, entries, 10, 0.5)
	const k = 9
	want := oracleAnswers(t, entries, queries, k)

	for _, shards := range []int{1, 2, 4, 8} {
		s := newShardedTrees(t, "PAA", shards)
		if err := s.InsertBatch(entries); err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			res, _, err := s.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			identicalResults(t, testLabel("knn", i, shards, 0), res, want[i])
		}
		for _, workers := range []int{1, 2, 8} {
			out, _, err := BatchKNN(s, queries, k, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range queries {
				identicalResults(t, testLabel("batch", i, shards, workers), out[i], want[i])
			}
		}
	}
}

// TestShardedKNNTiesAtSeedBound stores one series under IDs spread over
// every shard: k on lead shard 0, so the seed of every other shard (the k-th
// distance among the leads' answers) is exactly the shared distance, and one
// with a lower ID on each non-lead shard. Those must survive pruning at the seed (it is
// strict) and early abandoning at the bound, and win the tie by ID.
func TestShardedKNNTiesAtSeedBound(t *testing.T) {
	const shards, k = 8, 5
	rng := rand.New(rand.NewSource(31))
	meth := buildMethod(t, "PAA")
	entries := makeEntries(t, meth, rng, 300, 128, 12)
	twin := makeEntries(t, meth, rng, 1, 128, 12)[0]

	var lowIDs []int // one per non-lead shard, below every lead-shard twin
	onShard := make([]bool, shards)
	for id := 1000; len(lowIDs) < shards-leadShards; id++ {
		if si := ShardOf(id, shards); si >= leadShards && !onShard[si] {
			onShard[si] = true
			lowIDs = append(lowIDs, id)
		}
	}
	twins := append([]int(nil), lowIDs...)
	for id, n := 5000, 0; n < k; id++ {
		if ShardOf(id, shards) == 0 {
			twins = append(twins, id)
			n++
		}
	}
	for _, id := range twins {
		entries = append(entries, NewEntry(id, twin.Raw, twin.Rep))
	}

	raw := append(ts.Series(nil), twin.Raw...)
	for i := range raw {
		raw[i] += 0.1 * rng.NormFloat64()
	}
	rep, err := meth.Reduce(raw, 12)
	if err != nil {
		t.Fatal(err)
	}
	q := dist.NewQuery(raw, rep)
	want := oracleAnswers(t, entries, []dist.Query{q}, k)[0]
	for i, r := range want {
		if r.Entry.ID != lowIDs[i] {
			t.Fatalf("oracle rank %d is id %d, want twin %d: fixture no longer ties", i, r.Entry.ID, lowIDs[i])
		}
	}

	s := newShardedTrees(t, "PAA", shards)
	if err := s.InsertBatch(entries); err != nil {
		t.Fatal(err)
	}
	var leads [leadShards][]Result
	for si := range leads {
		res, _, err := s.Shard(si).KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		leads[si] = res
	}
	if seed := seedBound(leads[0], leads[1], k); math.Float64bits(seed) != math.Float64bits(want[0].Dist) {
		t.Fatalf("seed bound %v, want the tie distance %v", seed, want[0].Dist)
	}

	res, _, err := s.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, "knn", res, want)
	for _, workers := range []int{1, 2, 8} {
		out, _, err := BatchKNN(s, []dist.Query{q}, k, workers)
		if err != nil {
			t.Fatal(err)
		}
		identicalResults(t, fmt.Sprintf("batch workers=%d", workers), out[0], want)
	}
}

// TestShardedSearchStatsDeterministic checks that the seeded schedule makes
// per-query work a function of the query and the shard count alone: the
// batch fan-out reports exactly the sequential scatter's SearchStats for
// every worker count and on repeated runs.
func TestShardedSearchStatsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	meth := buildMethod(t, "SAPLA")
	entries := makeEntries(t, meth, rng, 600, 128, 12)
	queries := noisyQueries(t, meth, rng, entries, 12, 0.5)
	const k = 10

	ws := NewWorkspace()
	for _, shards := range []int{2, 4, 8} {
		s := newShardedTrees(t, "SAPLA", shards)
		if err := s.InsertBatch(entries); err != nil {
			t.Fatal(err)
		}
		want := make([]SearchStats, len(queries))
		wantRes := make([][]Result, len(queries))
		for i, q := range queries {
			res, st, err := s.KNNWith(ws, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if st.DistEvals == 0 || st.Measured == 0 {
				t.Fatalf("shards=%d query %d: empty work counters %+v", shards, i, st)
			}
			want[i], wantRes[i] = st, append([]Result(nil), res...)
		}
		for run := 0; run < 2; run++ {
			for _, workers := range []int{1, 2, 3, 8} {
				out, stats, err := BatchKNN(s, queries, k, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range queries {
					if stats[i] != want[i] {
						t.Fatalf("shards=%d workers=%d run=%d query %d: stats %+v, sequential %+v",
							shards, workers, run, i, stats[i], want[i])
					}
					identicalResults(t, testLabel("batch", i, shards, workers), out[i], wantRes[i])
				}
			}
		}
	}
}

// referenceKNN is the plain GEMINI search over a DBCH-tree: both hull
// distances for every node bound, no memo, every refinement summed in full.
// It returns the answers and the work counters, with DistEvals counting
// every kernel evaluation it makes.
func referenceKNN(tree *DBCH, q dist.Query, k int) ([]Result, SearchStats) {
	ws := NewWorkspace()
	var stats SearchStats
	bound := func(nd int32) float64 {
		stats.DistEvals += 2
		du, dl := tree.dQ(q, tree.ar.hullU[nd]), tree.dQ(q, tree.ar.hullL[nd])
		vol := tree.ar.volume[nd]
		switch {
		case du <= vol && dl <= vol:
			return 0
		case tree.SafeBound:
			return math.Max(0, math.Max(du-tree.ar.coverU[nd], dl-tree.ar.coverL[nd]))
		default:
			return math.Min(du, dl)
		}
	}
	ws.ids.Push(0, tree.root)
	kth := math.Inf(1)
	for ws.ids.Len() > 0 {
		prio, nd := ws.ids.Pop()
		if prio > kth {
			break
		}
		stats.NodesVisited++
		if !tree.ar.isLeaf[nd] {
			for _, c := range tree.ar.slotsOf(nd) {
				if b := bound(c); b <= kth {
					ws.ids.Push(b, c)
				}
			}
			continue
		}
		for _, eid := range tree.ar.slotsOf(nd) {
			e := tree.ents[eid]
			stats.Filtered++
			stats.DistEvals++
			if fd, err := tree.filterEntry(q, e); err != nil || fd > kth {
				continue
			}
			stats.Measured++
			kth = ws.offerBest(k, math.Sqrt(ts.EuclideanSq(q.Raw, e.Raw)), e)
		}
	}
	return ws.drainResults(), stats
}

// TestDBCHSearchPruningMatchesReference checks that the per-search memo,
// the lazy SafeBound node bound and early-abandoning refinement save kernel
// evaluations without changing one pruning decision on a single tree: the
// answers and the node, filter and refinement counts equal the plain
// search's, under both node-bound rules and both filter kernels.
func TestDBCHSearchPruningMatchesReference(t *testing.T) {
	for _, method := range []string{"SAPLA", "PAA"} {
		for _, safe := range []bool{true, false} {
			rng := rand.New(rand.NewSource(41))
			meth := buildMethod(t, method)
			entries := makeEntries(t, meth, rng, 500, 128, 12)
			tree, err := NewDBCH(method, 2, 5)
			if err != nil {
				t.Fatal(err)
			}
			tree.SafeBound = safe
			for _, e := range entries {
				if err := tree.Insert(e); err != nil {
					t.Fatal(err)
				}
			}
			ws := NewWorkspace()
			var saved, total int
			for i, q := range noisyQueries(t, meth, rng, entries, 8, 0.5) {
				label := fmt.Sprintf("%s safe=%v query %d", method, safe, i)
				want, wantStats := referenceKNN(tree, q, 10)
				want = append([]Result(nil), want...)
				res, st, err := tree.KNNWith(ws, q, 10)
				if err != nil {
					t.Fatal(err)
				}
				identicalResults(t, label, res, want)
				if st.NodesVisited != wantStats.NodesVisited || st.Filtered != wantStats.Filtered ||
					st.Measured != wantStats.Measured {
					t.Fatalf("%s: stats %+v, reference %+v", label, st, wantStats)
				}
				saved += wantStats.DistEvals - st.DistEvals
				total += wantStats.DistEvals
			}
			if saved <= 0 {
				t.Fatalf("%s safe=%v: the memo saved no kernel evaluations (%d total)", method, safe, total)
			}
		}
	}
}

// TestShardedBatchKNNAllocsFlatInShards checks the allocation-free gather:
// a sharded batch's allocations come from the per-call buffers and the
// answers, not from per-(query, shard) copies, so they do not grow with the
// shard count.
func TestShardedBatchKNNAllocsFlatInShards(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	meth := buildMethod(t, "SAPLA")
	entries := makeEntries(t, meth, rng, 300, 128, 12)
	queries := noisyQueries(t, meth, rng, entries, 8, 0.5)
	allocs := map[int]float64{}
	for _, shards := range []int{2, 8} {
		s := newShardedTrees(t, "SAPLA", shards)
		if err := s.InsertBatch(entries); err != nil {
			t.Fatal(err)
		}
		allocs[shards] = testing.AllocsPerRun(50, func() {
			if _, _, err := BatchKNN(s, queries, 8, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Per-task copies would add 48 allocations (8 queries × 6 more shards).
	// The slack absorbs pooled workspaces rebuilt after sync.Pool dropped
	// them, which the garbage collector and the race detector both do.
	if allocs[8] > allocs[2]+8 {
		t.Fatalf("allocs/op %.1f at 8 shards vs %.1f at 2: the gather allocates per (query, shard) task",
			allocs[8], allocs[2])
	}
}

func TestSeedBound(t *testing.T) {
	res := func(ds ...float64) []Result {
		out := make([]Result, len(ds))
		for i, d := range ds {
			out[i] = Result{Dist: d}
		}
		return out
	}
	inf := math.Inf(1)
	for _, c := range []struct {
		a, b []Result
		k    int
		want float64
	}{
		{res(1, 4, 6), res(2, 3, 5), 3, 3},
		{res(1, 4, 6), res(2, 3, 5), 1, 1},
		{res(1, 4, 6), res(2, 3, 5), 6, 6},
		{res(1, 2, 3), nil, 3, 3},
		{nil, res(1, 2, 3), 2, 2},
		{res(2, 2), res(2), 3, 2},
		{res(1, 2), res(3), 4, inf},
		{res(1), res(2), 0, inf},
	} {
		if got := seedBound(c.a, c.b, c.k); got != c.want { //sapla:floateq exact values picked from the inputs
			t.Errorf("seedBound(%v, %v, %d) = %v, want %v", c.a, c.b, c.k, got, c.want)
		}
	}
}

// TestWorkspaceMemoGenerations checks that a new search never sees an
// earlier search's memo entries, across the stamp counter's wrap-around and
// across a growth of the memo.
func TestWorkspaceMemoGenerations(t *testing.T) {
	ws := NewWorkspace()
	stale := func(n int) {
		t.Helper()
		for eid := 0; eid < n; eid++ {
			if ws.memoGen[eid] == ws.gen {
				t.Fatalf("gen %d: slot %d carries a stale stamp", ws.gen, eid)
			}
		}
	}
	ws.resetMemo(8)
	for eid := range ws.memoGen {
		ws.memoGen[eid] = ws.gen
	}
	ws.resetMemo(8)
	stale(8)
	ws.gen = math.MaxUint16
	for eid := range ws.memoGen {
		ws.memoGen[eid] = ws.gen - uint16(eid%2)
	}
	ws.resetMemo(8)
	stale(8)
	ws.memoGen[0] = ws.gen
	ws.resetMemo(100)
	if len(ws.memoGen) < 100 || len(ws.memoVal) != len(ws.memoGen) {
		t.Fatalf("memo holds %d/%d slots, want at least 100", len(ws.memoGen), len(ws.memoVal))
	}
	stale(100)
}
