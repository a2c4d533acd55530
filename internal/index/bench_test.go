package index

import (
	"fmt"
	"math/rand"
	"testing"

	"sapla/internal/core"
	"sapla/internal/dist"
)

func benchEntries(b testing.TB, count, n, m int) []*Entry {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	meth := core.New()
	out := make([]*Entry, count)
	for i := range out {
		raw := randWalk(rng, n)
		rep, err := meth.Reduce(raw, m)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = NewEntry(i, raw, rep)
	}
	return out
}

func BenchmarkRTreeInsert(b *testing.B) {
	entries := benchEntries(b, 500, 128, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, _ := NewRTree("SAPLA", 128, 12, 2, 5)
		for _, e := range entries {
			if err := tree.Insert(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDBCHInsert(b *testing.B) {
	entries := benchEntries(b, 500, 128, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, _ := NewDBCH("SAPLA", 2, 5)
		for _, e := range entries {
			if err := tree.Insert(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchKNN(b *testing.B, idx Index, entries []*Entry) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	meth := core.New()
	for _, e := range entries {
		if err := idx.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
	q := randWalk(rng, 128)
	qr, err := meth.Reduce(q, 12)
	if err != nil {
		b.Fatal(err)
	}
	query := dist.NewQuery(q, qr)
	b.ResetTimer()
	var measured int
	for i := 0; i < b.N; i++ {
		_, stats, err := idx.KNN(query, 8)
		if err != nil {
			b.Fatal(err)
		}
		measured = stats.Measured
	}
	b.ReportMetric(float64(measured)/float64(len(entries)), "rho")
}

func BenchmarkRTreeKNN(b *testing.B) {
	tree, _ := NewRTree("SAPLA", 128, 12, 2, 5)
	benchKNN(b, tree, benchEntries(b, 500, 128, 12))
}

func BenchmarkDBCHKNN(b *testing.B) {
	tree, _ := NewDBCH("SAPLA", 2, 5)
	benchKNN(b, tree, benchEntries(b, 500, 128, 12))
}

func BenchmarkLinearScanKNN(b *testing.B) {
	benchKNN(b, NewLinearScan(), benchEntries(b, 500, 128, 12))
}

// BenchmarkIngestDBCH compares the two ingest paths over the same 500
// entries: per-entry Insert (branch picks, splits, hull rebuilds) against
// InsertBatch (bulk load on an empty tree, pre-reserved arenas otherwise).
func BenchmarkIngestDBCH(b *testing.B) {
	entries := benchEntries(b, 500, 128, 12)
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree, err := NewDBCH("SAPLA", 2, 5)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range entries {
				if err := tree.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree, err := NewDBCH("SAPLA", 2, 5)
			if err != nil {
				b.Fatal(err)
			}
			if err := tree.InsertBatch(entries); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompact prices one arena rebuild of a tree fragmented by deleting
// every third entry. Compact always rebuilds when called directly, so the
// steady-state iterations measure exactly the collect-reset-bulkload cycle.
func BenchmarkCompact(b *testing.B) {
	tree, err := NewDBCH("SAPLA", 2, 5)
	if err != nil {
		b.Fatal(err)
	}
	entries := benchEntries(b, 500, 128, 12)
	for _, e := range entries {
		if err := tree.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < len(entries); i += 3 {
		tree.Delete(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Compact()
	}
}

// BenchmarkKNN is the benchdiff-tracked hot path: one DBCH k-NN search on a
// warmed workspace must perform zero heap allocations.
func BenchmarkKNN(b *testing.B) {
	tree, err := NewDBCH("SAPLA", 2, 5)
	if err != nil {
		b.Fatal(err)
	}
	entries := benchEntries(b, 500, 128, 12)
	for _, e := range entries {
		if err := tree.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
	query := testQueries(b, 1, 128, 12)[0]
	ws := NewWorkspace()
	if _, _, err := tree.KNNWith(ws, query, 8); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tree.KNNWith(ws, query, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchKNN compares the batch engine across worker counts. On a
// multi-core host the Workers=GOMAXPROCS case demonstrates the parallel
// speedup; per-answer copies are the only steady-state allocations.
func BenchmarkBatchKNN(b *testing.B) {
	tree, err := NewDBCH("SAPLA", 2, 5)
	if err != nil {
		b.Fatal(err)
	}
	entries := benchEntries(b, 500, 128, 12)
	for _, e := range entries {
		if err := tree.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
	queries := testQueries(b, 32, 128, 12)
	for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS
		name := "serial"
		if workers == 0 {
			name = "gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := BatchKNN(tree, queries, 8, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedBatchKNN times the sharded scatter-gather the way the
// service's batch endpoint runs it: 8000 random walks of length 256 in 1, 4
// or 8 shards of DBCH-trees, batches of 8 queries at k = 10 on GOMAXPROCS
// workers. Half the queries are stored series plus noise, half fresh walks.
// One iteration answers the whole query set, batch by batch. Alongside
// allocs it reports the per-query work counters, which are exact: filtered
// entries, refinements and representation-distance kernel evaluations.
func BenchmarkShardedBatchKNN(b *testing.B) {
	const batch, k = 8, 10
	entries := benchEntries(b, 8000, 256, 12)
	queries := noisyQueries(b, core.New(), rand.New(rand.NewSource(3)), entries, 64, 0.5)
	for _, shards := range []int{1, 4, 8} {
		s := newShardedTrees(b, "SAPLA", shards)
		if err := s.InsertBatch(entries); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var work SearchStats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				work = SearchStats{}
				for lo := 0; lo < len(queries); lo += batch {
					_, stats, err := BatchKNN(s, queries[lo:lo+batch], k, 0)
					if err != nil {
						b.Fatal(err)
					}
					for _, st := range stats {
						addStats(&work, st)
					}
				}
			}
			nq := float64(len(queries))
			b.ReportMetric(float64(work.Filtered)/nq, "filtered/query")
			b.ReportMetric(float64(work.Measured)/nq, "refined/query")
			b.ReportMetric(float64(work.DistEvals)/nq, "dist-evals/query")
		})
	}
}
