// Package index implements the two memory-resident index structures the
// paper evaluates: a classic Guttman R-tree over representation-coefficient
// MBRs (the APCA-style baseline) and the paper's DBCH-tree (Distance-Based
// Covering with Convex Hull, Sections 5.2–5.3), plus the GEMINI
// branch-and-bound k-NN search and a linear-scan baseline, and the tree
// statistics reported in Figures 15–16.
package index

import (
	"fmt"

	"sapla/internal/dist"
	"sapla/internal/repr"
	"sapla/internal/ts"
)

// Entry is one indexed time series: its identifier, the raw series (the
// index is memory-based, matching the paper's setup), and its reduced
// representation under the index's method.
type Entry struct {
	ID  int
	Raw ts.Series
	Rep repr.Representation

	vec  []float64        // cached coefficient vector
	flat *dist.FlatLinear // cached flat PAR form; nil when not linear-convertible
}

// NewEntry builds an entry, caching the coefficient vector and the flat PAR
// form of linear-convertible representations. A nil representation is allowed
// for indexes that never filter (the linear scan).
func NewEntry(id int, raw ts.Series, rep repr.Representation) *Entry {
	e := &Entry{ID: id, Raw: raw, Rep: rep}
	if rep != nil {
		e.vec = rep.Coeffs()
		e.flat = dist.FlattenLinear(rep)
	}
	return e
}

// Vec returns the entry's coefficient vector.
func (e *Entry) Vec() []float64 { return e.vec }

// Index is a searchable collection of entries. Both trees and the linear
// scan implement it.
type Index interface {
	// Insert adds an entry.
	Insert(e *Entry) error
	// KNN returns the k nearest entries to the query under the index's
	// search strategy, along with search statistics.
	KNN(q dist.Query, k int) ([]Result, SearchStats, error)
	// Len returns the number of stored entries.
	Len() int
}

// Result is one k-NN answer.
type Result struct {
	Entry *Entry
	Dist  float64 // exact Euclidean distance
}

// SearchStats records the work a query performed. Measured drives the
// paper's pruning power ρ (Eq. 14): the number of stored series whose exact
// distance had to be computed.
type SearchStats struct {
	Measured     int // raw series fetched for exact distance computation
	NodesVisited int
	Filtered     int // leaf entries tested by the representation-level filter
	// DistEvals counts representation-distance kernel evaluations the
	// DBCH-tree actually computed: node-bound hull distances plus leaf
	// filters, excluding answers served from the per-search memo.
	DistEvals int
}

// TreeStats describes a tree's shape (Figures 15–16).
type TreeStats struct {
	InternalNodes int
	LeafNodes     int
	Height        int
	Entries       int
}

// TotalNodes returns internal + leaf node count.
func (s TreeStats) TotalNodes() int { return s.InternalNodes + s.LeafNodes }

// AvgLeafFill returns the mean number of entries per leaf.
func (s TreeStats) AvgLeafFill() float64 {
	if s.LeafNodes == 0 {
		return 0
	}
	return float64(s.Entries) / float64(s.LeafNodes)
}

// errDim reports an entry whose vector dimensionality does not match the
// index.
func errDim(want, got int) error {
	return fmt.Errorf("index: entry dimension %d, index dimension %d", got, want)
}
