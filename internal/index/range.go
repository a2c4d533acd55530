package index

import (
	"math"
	"sort"

	"sapla/internal/dist"
	"sapla/internal/ts"
)

// sortResults orders range answers by the canonical (distance, entry ID)
// key. Distance alone would leave exact ties in traversal order, which
// differs between tree shapes — the ID tie-break is what lets a sharded
// range query concatenate per-shard answers and still produce byte-identical
// output for any shard count.
func sortResults(out []Result) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist { //sapla:floateq exact tie: the ID tie-break must fire only on bit-equal distances
			return out[i].Dist < out[j].Dist
		}
		return out[i].Entry.ID < out[j].Entry.ID
	})
}

// RangeSearcher is implemented by indexes that support ε-range queries —
// the other query type of the GEMINI framework: return every stored series
// within Euclidean distance radius of the query.
type RangeSearcher interface {
	Range(q dist.Query, radius float64) ([]Result, SearchStats, error)
}

// rangeSearch is the GEMINI range query over a tree: prune nodes whose
// bound exceeds the radius, filter leaf entries with the method's
// representation-space distance, and verify survivors exactly.
func rangeSearch(root treeNode, bound func(treeNode) float64, q dist.Query,
	radius float64, filter dist.FilterFunc) ([]Result, SearchStats, error) {

	var stats SearchStats
	var out []Result
	if root == nil || radius < 0 {
		return nil, stats, nil
	}
	stack := []treeNode{root}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		stats.NodesVisited++
		if !nd.IsLeaf() {
			for i, nc := 0, nd.NumChildren(); i < nc; i++ {
				if ch := nd.Child(i); bound(ch) <= radius {
					stack = append(stack, ch)
				}
			}
			continue
		}
		for _, e := range nd.Entries() {
			stats.Filtered++
			fd, err := filter(q, e.Rep)
			if err != nil {
				return nil, stats, err
			}
			if fd > radius {
				continue
			}
			stats.Measured++
			exact := math.Sqrt(ts.EuclideanSq(q.Raw, e.Raw))
			if exact <= radius {
				out = append(out, Result{Entry: e, Dist: exact})
			}
		}
	}
	sortResults(out)
	return out, stats, nil
}

// Range implements RangeSearcher for the R-tree.
func (t *RTree) Range(q dist.Query, radius float64) ([]Result, SearchStats, error) {
	if t.root == nil {
		return nil, SearchStats{}, nil
	}
	bound := func(nd treeNode) float64 { return t.nodeDist(q, nd.(*rnode).rect) }
	return rangeSearch(t.root, bound, q, radius, t.filter)
}

// Range implements RangeSearcher for the DBCH-tree: the GEMINI range query
// over the arena — prune nodes whose bound exceeds the radius, filter leaf
// entries, verify survivors exactly.
func (t *DBCH) Range(q dist.Query, radius float64) ([]Result, SearchStats, error) {
	var stats SearchStats
	if t.root == nilNode || radius < 0 {
		return nil, stats, nil
	}
	ws := wsPool.Get().(*Workspace)
	defer wsPool.Put(ws)
	ws.resetMemo(len(t.ents))
	var out []Result
	stack := make([]int32, 1, 64)
	stack[0] = t.root
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		stats.NodesVisited++
		if !t.ar.isLeaf[nd] {
			for _, c := range t.ar.slotsOf(nd) {
				if t.boundID(ws, q, c, radius, &stats) <= radius {
					stack = append(stack, c)
				}
			}
			continue
		}
		for _, eid := range t.ar.slotsOf(nd) {
			stats.Filtered++
			fd, err := t.filterMemo(ws, q, eid, &stats)
			if err != nil {
				return nil, stats, err
			}
			if fd > radius {
				continue
			}
			stats.Measured++
			e := t.ents[eid]
			if exact, ok := refine(q, e, radius); ok {
				out = append(out, Result{Entry: e, Dist: exact})
			}
		}
	}
	sortResults(out)
	return out, stats, nil
}

// Range implements RangeSearcher for the linear scan (exact).
func (s *LinearScan) Range(q dist.Query, radius float64) ([]Result, SearchStats, error) {
	stats := SearchStats{Measured: len(s.entries)}
	var out []Result
	for _, e := range s.entries {
		d := math.Sqrt(ts.EuclideanSq(q.Raw, e.Raw))
		if d <= radius {
			out = append(out, Result{Entry: e, Dist: d})
		}
	}
	sortResults(out)
	return out, stats, nil
}
