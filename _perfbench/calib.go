package main

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"time"
)

// The host the benchmark runs on is shared: from one minute to the next
// the same fixed loop runs up to two and a half times slower, which moves
// every latency of a run with it. So the benchmark times a reference
// kernel of its own, with no code of the service in it, around every turn
// of a closed loop, and scales the turn's latencies to a host on which the
// kernel takes refKernelUS. A change to the service does not
// change the kernel, so it moves the scaled figures as it moves the raw
// ones; a slower host moves both the kernel and the window, and the scaled
// figures much less.

// refKernelUS is the reference kernel's time on the host that fixed it
// (a 2-vCPU Xeon VM, best of calReps, idle): timings are reported as if
// every window had run at that speed.
const refKernelUS = 150.0

// calReps is how many times one calibration runs the kernel; it keeps the
// fastest, which a preemption of the benchmark's thread cannot lower.
const calReps = 5

// calibrator holds the reference kernel's inputs, which are the same on
// every run, whatever the seed.
type calibrator struct {
	series [][]float64
	query  []float64
	body   []byte
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewPCG(1, 0xca11b))
	c := &calibrator{query: randomWalk(rng, seriesLen)}
	for i := 0; i < 256; i++ {
		c.series = append(c.series, randomWalk(rng, seriesLen))
	}
	c.body = knnBody(c.query, k)
	return c
}

// calSink keeps the kernel's distances live.
var calSink float64

// measure returns the reference kernel's best time in µs: a scan of 256
// series of length 256 for their Euclidean distances to a query, then the
// decoding of a /v1/knn request body, the two kinds of work that dominate
// a served query.
func (c *calibrator) measure() float64 {
	best := time.Duration(1 << 62)
	for rep := 0; rep < calReps; rep++ {
		t0 := time.Now()
		for _, s := range c.series {
			calSink += euclid(c.query, s)
		}
		var req struct {
			K      int       `json:"k"`
			Values []float64 `json:"values"`
		}
		if err := json.Unmarshal(c.body, &req); err != nil {
			panic(err) // the body is the benchmark's own constant
		}
		best = min(best, time.Since(t0))
	}
	return us(best)
}

// scale is the factor that takes a time measured between two calibrations
// to the reference host.
func (b *bench) scale(before, after float64) float64 {
	return refKernelUS / ((before + after) / 2)
}

// measuredPhase runs one turn of a phase and records its scale. A turn of
// a closed loop runs between two calibrations. The open loop of a durable
// workload is not scaled: its requests wait mostly on fsync and on each
// other, not on the processor, and its figures followed the kernel's
// noise rather than the host's speed.
func (b *bench) measuredPhase(ctx context.Context, kind phaseKind, d time.Duration) phase {
	if kind == phaseMixed {
		p := b.runPhase(ctx, kind, d)
		p.scale = 1
		return p
	}
	before := b.cal.measure()
	p := b.runPhase(ctx, kind, d)
	p.scale = b.scale(before, b.cal.measure())
	return p
}
