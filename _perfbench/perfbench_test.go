package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec is the metric part of the repository's BENCHMARK.json.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smoke runs workload w at a tiny size.
func smoke(t *testing.T, w workload, trace bool) *result {
	t.Helper()
	res, err := run(context.Background(), options{w: w, seed: 3, seconds: 1, trace: trace, scale: 0.05, workDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct %v, %d of %d failed", w.name, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// TestSmoke runs every workload of BENCHMARK.json at a tiny size, untraced
// and traced, and checks that every named metric is printed with its unit.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, sw := range spec.Workloads {
		w, err := workloadByName(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			res := smoke(t, w, false)
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("%d end-to-end metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(spec.EndToEnd))
			}
			res = smoke(t, w, true)
			for _, m := range spec.PerLayer {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("%d per-layer metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(spec.PerLayer))
			}
		})
	}
}

// TestWorkCountersRepeat checks that the per-query work counters of the
// traced replay repeat exactly across runs with the same seed on the
// read-only workloads.
func TestWorkCountersRepeat(t *testing.T) {
	for _, name := range []string{"knn_point", "knn_batch"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b := smoke(t, w, true), smoke(t, w, true)
		for _, c := range []string{"dist.filter_per_query", "index.refined_per_query", "index.nodes_per_query"} {
			if a.Metrics[c].Value != b.Metrics[c].Value || a.Metrics[c].Value == 0 {
				t.Errorf("%s %s: %v then %v", name, c, a.Metrics[c].Value, b.Metrics[c].Value)
			}
		}
	}
}

// bruteForce is the exact answer to query qi over the preloaded series.
func bruteForce(d *dataset, qi int) []knnResult {
	var all []knnResult
	for id := 0; id < d.preload; id++ {
		all = append(all, knnResult{ID: id, Dist: euclid(d.queries[qi], d.series[id])})
	}
	sort.Slice(all, func(i, j int) bool { return less(all[i], all[j]) })
	return all[:k]
}

// TestCheckerRejectsCorruptAnswers feeds the answer checker a correct
// answer and deliberately corrupted copies of it.
func TestCheckerRejectsCorruptAnswers(t *testing.T) {
	d := newDataset(5, 200)
	c := newChecker(d, 5)
	c.buildLifetimes(nil)
	sent := time.Now()
	recv := sent.Add(time.Millisecond)
	good := bruteForce(d, 0)
	if msg := c.checkAnswer(0, good, sent, recv); msg != "" {
		t.Fatalf("correct answer rejected: %s", msg)
	}

	corrupt := map[string]func([]knnResult) []knnResult{
		"wrong distance": func(r []knnResult) []knnResult { r[3].Dist *= 1 + 1e-6; return r },
		"unsorted":       func(r []knnResult) []knnResult { r[2], r[3] = r[3], r[2]; return r },
		"unsorted tie": func(r []knnResult) []knnResult {
			// Two results at one distance must come in ID order.
			d.series[r[4].ID] = append([]float64(nil), d.series[r[3].ID]...)
			r[4].Dist = r[3].Dist
			if r[3].ID < r[4].ID {
				r[3], r[4] = r[4], r[3]
			}
			return r
		},
		"too few":   func(r []knnResult) []knnResult { return r[:k-1] },
		"duplicate": func(r []knnResult) []knnResult { r[5] = r[4]; return r },
		"unknown ID": func(r []knnResult) []knnResult {
			r[k-1].ID = len(d.series) + 7
			return r
		},
		"deleted ID": func(r []knnResult) []knnResult {
			c.life[r[1].ID].deleteSent = sent.Add(-2 * time.Millisecond)
			c.life[r[1].ID].deleteAck = sent.Add(-time.Millisecond)
			return r
		},
	}
	for name, f := range corrupt {
		saved := append([][]float64(nil), d.series...)
		for i := range saved {
			saved[i] = append([]float64(nil), d.series[i]...)
		}
		c.buildLifetimes(nil)
		answer := f(append([]knnResult(nil), good...))
		if msg := c.checkAnswer(0, answer, sent, recv); msg == "" {
			t.Errorf("%s: corrupted answer accepted", name)
		}
		d.series = saved
	}
}

// TestRecallCountsDismissals checks that the recall sampler charges a true
// neighbour the answer skipped, and does not charge one that a
// concurrently ingested closer series displaced.
func TestRecallCountsDismissals(t *testing.T) {
	d := newDataset(6, 200)
	c := newChecker(d, 6)
	c.buildLifetimes(nil)
	sent := time.Now()
	good := bruteForce(d, 0)

	c.recall(d.queries[0], good, sent, sent)
	if c.recallAtK() != 1 {
		t.Fatalf("exact answer has recall %v", c.recallAtK())
	}

	// Replace the 3rd neighbour with a worse, real series: a dismissal.
	c.recallHit, c.recallAll = 0, 0
	all := append([]knnResult(nil), good...)
	worse := knnResult{ID: -1}
	for id := 0; id < d.preload && worse.ID < 0; id++ {
		r := knnResult{ID: id, Dist: euclid(d.queries[0], d.series[id])}
		if less(good[k-1], r) {
			worse = r
		}
	}
	all = append(append(all[:2], all[3:]...), worse)
	sort.Slice(all, func(i, j int) bool { return less(all[i], all[j]) })
	c.recall(d.queries[0], all, sent, sent)
	if got, want := c.recallAtK(), float64(k-1)/k; got != want {
		t.Fatalf("recall %v, want %v", got, want)
	}
}
