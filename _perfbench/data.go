package main

import (
	"math"
	"math/rand/v2"
	"strconv"
)

// dataset is the generator's copy of every series the benchmark may send,
// indexed by series ID. IDs [0, preload) are loaded during set-up; higher
// IDs are fresh series that the write phases ingest. Everything is a pure
// function of the seed, so the same seed gives the same inputs.
type dataset struct {
	length  int
	preload int
	series  [][]float64
	rng     *rand.Rand // extends series for fresh IDs
	// queries are stored series plus Gaussian noise.
	queries [][]float64
}

const (
	seriesLen  = 256
	queryNoise = 0.5
	queryPool  = 2048 // distinct query series; closed loops cycle through them
)

// newDataset generates preload random walks and the query pool.
func newDataset(seed uint64, preload int) *dataset {
	d := &dataset{
		length:  seriesLen,
		preload: preload,
		rng:     rand.New(rand.NewPCG(seed, 0x5a91a)),
	}
	for i := 0; i < preload; i++ {
		d.series = append(d.series, randomWalk(d.rng, d.length))
	}
	qrng := rand.New(rand.NewPCG(seed, 0x9e3779b9))
	for i := 0; i < queryPool; i++ {
		b := qrng.IntN(preload)
		q := make([]float64, d.length)
		for j, v := range d.series[b] {
			q[j] = v + queryNoise*qrng.NormFloat64()
		}
		d.queries = append(d.queries, q)
	}
	return d
}

// randomWalk returns a Gaussian random walk of length n.
func randomWalk(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	x := 0.0
	for i := range s {
		x += rng.NormFloat64()
		s[i] = x
	}
	return s
}

// fresh generates the next n never-ingested series and returns their IDs.
// Not safe for concurrent use.
func (d *dataset) fresh(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = len(d.series)
		d.series = append(d.series, randomWalk(d.rng, d.length))
	}
	return ids
}

// euclid is the exact Euclidean distance, the reference every returned
// distance is checked against.
func euclid(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// appendValues appends v as a JSON array of shortest-form floats.
func appendValues(buf []byte, v []float64) []byte {
	buf = append(buf, '[')
	for i, x := range v {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
	}
	return append(buf, ']')
}

// knnBody encodes a POST /v1/knn request.
func knnBody(q []float64, k int) []byte {
	buf := append([]byte(`{"k":`), strconv.Itoa(k)...)
	buf = append(buf, `,"values":`...)
	buf = appendValues(buf, q)
	return append(buf, '}')
}

// batchBody encodes a POST /v1/knn/batch request.
func batchBody(qs [][]float64, k int) []byte {
	buf := append([]byte(`{"k":`), strconv.Itoa(k)...)
	buf = append(buf, `,"queries":[`...)
	for i, q := range qs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"values":`...)
		buf = appendValues(buf, q)
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}

// ingestBody encodes a POST /v1/ingest/batch request with explicit IDs.
func (d *dataset) ingestBody(ids []int) []byte {
	buf := []byte(`{"series":[`)
	for i, id := range ids {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, `,"values":`...)
		buf = appendValues(buf, d.series[id])
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}
