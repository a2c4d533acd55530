package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// Response shapes, as a client of the service decodes them.
type knnResult struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

type searchStats struct {
	Measured     int `json:"measured"`
	Filtered     int `json:"filtered"`
	NodesVisited int `json:"nodes_visited"`
}

type knnResponse struct {
	Results []knnResult `json:"results"`
	Stats   searchStats `json:"stats"`
}

type batchResponse struct {
	Answers []knnResponse `json:"answers"`
}

type ingestResponse struct {
	IDs []int `json:"ids"`
}

type deleteResponse struct {
	ID      int  `json:"id"`
	Deleted bool `json:"deleted"`
}

// relTol is the relative tolerance between a returned distance and the
// exact Euclidean distance to the returned ID's series.
const relTol = 1e-9

// sampleEvery selects the queries re-answered by brute force for recall.
const sampleEvery = 16

// lifetime is what the client knows about one series ID: when its ingest
// was sent and acknowledged, and when its delete was sent and acknowledged.
// Zero times mean "never"; preloaded IDs are acknowledged at preloadAck.
type lifetime struct {
	ingestSent, ingestAck, deleteSent, deleteAck time.Time
}

// checker verifies every response of a run against the generator's copy
// of the data.
type checker struct {
	data    *dataset
	life    []lifetime // by ID
	sampled []bool     // by query-pool index: re-answered by brute force

	attempted, failed    int
	problems             []string
	recallHit, recallAll int
}

// preloadAck stands for "acknowledged before any measured request".
var preloadAck = time.Unix(0, 1)

func newChecker(data *dataset, seed uint64) *checker {
	c := &checker{data: data, sampled: make([]bool, len(data.queries))}
	rng := rand.New(rand.NewPCG(seed, 0x5e1ec7))
	for i := range c.sampled {
		c.sampled[i] = rng.IntN(sampleEvery) == 0
	}
	return c
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// at returns the absolute time of an offset into phase p.
func at(p *phase, d time.Duration) time.Time { return p.t0.Add(d) }

// buildLifetimes derives every ID's lifetime from the write records of all
// phases, so that reads can be checked against concurrent writes.
func (c *checker) buildLifetimes(phases []*phase) {
	c.life = make([]lifetime, len(c.data.series))
	for id := 0; id < c.data.preload; id++ {
		c.life[id] = lifetime{ingestSent: preloadAck, ingestAck: preloadAck}
	}
	for _, p := range phases {
		for i := range p.recs {
			r := &p.recs[i]
			ok := r.ok()
			for _, id := range r.ids {
				if id < 0 || id >= len(c.life) {
					continue
				}
				l := &c.life[id]
				switch r.kind {
				case opIngest:
					l.ingestSent = at(p, r.start)
					if ok {
						l.ingestAck = at(p, r.end)
					}
				case opDelete:
					l.deleteSent = at(p, r.start)
					if ok {
						l.deleteAck = at(p, r.end)
					}
				}
			}
		}
	}
}

// checkPhases checks every record of every phase.
func (c *checker) checkPhases(phases []*phase) {
	c.buildLifetimes(phases)
	for _, p := range phases {
		for i := range p.recs {
			c.checkRecord(p, &p.recs[i])
		}
	}
}

func (c *checker) checkRecord(p *phase, r *record) {
	c.attempted++
	if !r.ok() {
		c.fail("%s: status %d, err %v: %.200s", r.kind, r.status, r.err, r.body)
		return
	}
	sent, recv := at(p, r.start), at(p, r.end)
	switch r.kind {
	case opKNN:
		var resp knnResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			c.fail("knn: decode: %v", err)
			return
		}
		if msg := c.checkAnswer(r.arg, resp.Results, sent, recv); msg != "" {
			c.fail("knn query %d: %s", r.arg, msg)
		}
	case opBatch:
		var resp batchResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			c.fail("batch: decode: %v", err)
			return
		}
		if len(resp.Answers) != batchSize {
			c.fail("batch %d: %d answers, want %d", r.arg, len(resp.Answers), batchSize)
			return
		}
		for j, a := range resp.Answers {
			qi := r.arg*batchSize + j
			if msg := c.checkAnswer(qi, a.Results, sent, recv); msg != "" {
				c.fail("batch %d query %d: %s", r.arg, qi, msg)
				return
			}
		}
	case opIngest:
		var resp ingestResponse
		if err := json.Unmarshal(r.body, &resp); err != nil || len(resp.IDs) != len(r.ids) {
			c.fail("ingest: bad response %.200s", r.body)
			return
		}
		for i, id := range resp.IDs {
			if id != r.ids[i] {
				c.fail("ingest: acknowledged ID %d, sent %d", id, r.ids[i])
				return
			}
		}
	case opDelete:
		var resp deleteResponse
		if err := json.Unmarshal(r.body, &resp); err != nil || !resp.Deleted || resp.ID != r.ids[0] {
			c.fail("delete %d: bad response %.200s", r.ids[0], r.body)
		}
	}
}

// before reports whether t is set and earlier than u.
func before(t, u time.Time) bool { return !t.IsZero() && t.Before(u) }

// less is the canonical (distance, ID) order.
func less(a, b knnResult) bool {
	return a.Dist < b.Dist || (a.Dist == b.Dist && a.ID < b.ID) // the canonical order breaks exact distance ties by ID
}

// checkAnswer checks the answer to query qi, sent at sent and received at
// recv, and returns what is wrong with it, or "". It also feeds the recall
// sample.
func (c *checker) checkAnswer(qi int, res []knnResult, sent, recv time.Time) string {
	q := c.data.queries[qi]
	if len(res) != k {
		return fmt.Sprintf("%d results, want %d", len(res), k)
	}
	for i, r := range res {
		if r.ID < 0 || r.ID >= len(c.life) || !before(c.life[r.ID].ingestSent, recv) {
			return fmt.Sprintf("ID %d was never ingested", r.ID)
		}
		if before(c.life[r.ID].deleteAck, sent) {
			return fmt.Sprintf("ID %d returned after its delete was acknowledged", r.ID)
		}
		exact := euclid(q, c.data.series[r.ID])
		if math.Abs(r.Dist-exact) > relTol*math.Max(1, exact) {
			return fmt.Sprintf("ID %d at distance %v, exact %v", r.ID, r.Dist, exact)
		}
		if i > 0 && !less(res[i-1], r) {
			return fmt.Sprintf("results %d and %d out of (distance, ID) order", i-1, i)
		}
	}
	if c.sampled[qi] {
		c.recall(q, res, sent, recv)
	}
	return ""
}

// recall re-answers q by brute force over the series certainly live for
// the whole request: acknowledged before it was sent, and not deleted
// before its response arrived. A true neighbour counts as found when it was
// returned, or when every returned result precedes it in the canonical
// order — then series that were being ingested concurrently displaced it
// legitimately.
func (c *checker) recall(q []float64, res []knnResult, sent, recv time.Time) {
	truth := make([]knnResult, 0, len(c.life))
	for id, l := range c.life {
		if !before(l.ingestAck, sent) || before(l.deleteSent, recv) {
			continue
		}
		truth = append(truth, knnResult{ID: id, Dist: euclid(q, c.data.series[id])})
	}
	sort.Slice(truth, func(i, j int) bool { return less(truth[i], truth[j]) })
	if len(truth) > k {
		truth = truth[:k]
	}
	got := make(map[int]bool, len(res))
	for _, r := range res {
		got[r.ID] = true
	}
	for _, t := range truth {
		c.recallAll++
		if got[t.ID] || less(res[len(res)-1], t) {
			c.recallHit++
		}
	}
}

// recallAtK is the sampled recall, or 1 when nothing was sampled.
func (c *checker) recallAtK() float64 {
	if c.recallAll == 0 {
		return 1
	}
	return float64(c.recallHit) / float64(c.recallAll)
}
