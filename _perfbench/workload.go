package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"sapla/internal/index"
	"sapla/internal/server"
)

// Parameters shared by every workload.
const (
	m           = 12  // SAPLA coefficient budget
	k           = 10  // neighbours per query
	batchSize   = 8   // queries per /v1/knn/batch request
	ingestSize  = 32  // series per /v1/ingest/batch request in the measured phases
	preloadSize = 128 // series per /v1/ingest/batch request during set-up
	setupReps   = 3   // set-ups per run; setup_s is their median
	warmQueries = 64  // queries sent before timing starts
	// Deletes per ingest batch in the write phase of a read-only workload.
	// The first delete after an ingest runs about twice as slow as the
	// later ones; with one delete per ingest the median delete flipped
	// between the two speeds from run to run.
	writeDeletes = 8
	// Requests per second of its share of the run that the write phase
	// sends: about 70 % of what one client completes on an idle host.
	writeRate = 750
)

// phaseKind is one measured load pattern.
type phaseKind uint8

const (
	phaseKNN   phaseKind = iota // closed loop, maxClients clients, POST /v1/knn
	phaseBatch                  // closed loop, 1 client, POST /v1/knn/batch
	phaseWrite                  // closed loop, 1 client, ingest batch then delete
	phaseMixed                  // open loop: ingest batch, delete, knn at fixed rates
)

// share is one phase of a workload and the percentage of the run's
// seconds it gets.
type share struct {
	kind phaseKind
	pct  int
}

// workload is one named configuration and traffic mix. The first phase is
// the main one, what the workload exists to measure. The others are side
// phases on the same server, so that every end-to-end metric has a value on
// every workload.
type workload struct {
	name    string
	shards  int
	preload int
	durable bool
	phases  []share
	// Open-loop rates in requests per second (phaseMixed only).
	ingestRate, deleteRate, knnRate float64
}

var workloads = []workload{
	{
		name: "knn_point", shards: 1, preload: 1000,
		phases: []share{{phaseKNN, 50}, {phaseBatch, 15}, {phaseWrite, 35}},
	},
	{
		name: "knn_batch", shards: 8, preload: 8000,
		phases: []share{{phaseBatch, 50}, {phaseKNN, 15}, {phaseWrite, 35}},
	},
	{
		name: "ingest_mixed", shards: 4, preload: 4000, durable: true,
		phases:     []share{{phaseMixed, 80}, {phaseBatch, 20}},
		ingestRate: 20, deleteRate: 60, knnRate: 50,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// serverConfig is the server configuration of workload w. dataDir is the
// WAL directory of a durable workload.
func (w workload) serverConfig(dataDir string, runFor time.Duration) server.Config {
	cfg := server.Config{M: m, Shards: w.shards}
	if w.durable {
		cfg.DataDir = dataDir
		cfg.SyncEvery = 1
		// Snapshots and compaction checks run every sixth of the run.
		// The tickers start with the server, and the open-loop mix runs
		// from about 0.2 of the run, after set-up and the batch side
		// phase, to its end, so five of each fall inside the mix on every
		// run. The first, during the batch phase, snapshots the set-up
		// state and finds nothing deleted to compact.
		cfg.SnapshotEvery = runFor / 6
		cfg.CompactEvery = runFor / 6
		cfg.CompactFragmentation = 0.02
	}
	return cfg
}

// bench is one run's state: the workload, its data and its server.
type bench struct {
	w       workload
	seed    uint64
	runFor  time.Duration
	trace   bool
	workDir string // scratch directory for WAL data, inside the checkout
	data    *dataset
	cal     *calibrator
	h       *harness // the server of the current session

	knnBodies   [][]byte // knnBodies[i] queries data.queries[i]
	batchBodies [][]byte // batchBodies[b] queries data.queries[b*batchSize:(b+1)*batchSize]
	// Where each phase's next turn continues in the query pool, so that
	// the turns of a phase walk through the pool instead of repeating its
	// start.
	nextKNN, nextBatch int

	// The write phase's delete targets: IDs its ingests added, not yet
	// deleted, in ingest order.
	writeAcked []int

	// The open loop's delete targets: IDs acknowledged and not yet picked
	// for deletion.
	mu      sync.Mutex
	live    []int
	livePos map[int]int // ID -> position in live
	delRng  *rand.Rand
}

func newBench(w workload, seed uint64, runFor time.Duration, workDir string) *bench {
	b := &bench{
		w: w, seed: seed, runFor: runFor, workDir: workDir,
		data:    newDataset(seed, w.preload),
		cal:     newCalibrator(),
		livePos: make(map[int]int),
		delRng:  rand.New(rand.NewPCG(seed, 0xde1e7e)),
	}
	for _, q := range b.data.queries {
		b.knnBodies = append(b.knnBodies, knnBody(q, k))
	}
	for i := 0; i+batchSize <= len(b.data.queries); i += batchSize {
		b.batchBodies = append(b.batchBodies, batchBody(b.data.queries[i:i+batchSize], k))
	}
	return b
}

// session runs one server's life. It builds a fresh server (on a fresh WAL
// directory for a durable workload), preloads it through the HTTP
// batch-ingest path and warms it with a few queries, which is the set-up it
// times, then runs fn and shuts the server down. It returns the set-up time
// and the WAL directory, which the caller removes.
func (b *bench) session(ctx context.Context, fn func() error) (time.Duration, string, error) {
	start := time.Now()
	dataDir := ""
	if b.w.durable {
		var err error
		if dataDir, err = os.MkdirTemp(b.workDir, "wal-"); err != nil {
			return 0, "", fmt.Errorf("setup: %w", err)
		}
	}
	var setup time.Duration
	err := withServer(ctx, b.w.serverConfig(dataDir, b.runFor), func(h *harness) error {
		if err := b.preload(ctx, h); err != nil {
			return err
		}
		for i := 0; i < warmQueries; i++ {
			status, body, err := h.do(ctx, "POST", "/v1/knn", b.knnBodies[len(b.knnBodies)-1-i])
			if err != nil || status != 200 {
				return fmt.Errorf("setup: warm: status %d %.200s: %v", status, body, err)
			}
		}
		setup = time.Since(start)
		b.mu.Lock()
		b.live = b.live[:0]
		b.writeAcked = nil
		clear(b.livePos)
		for id := 0; id < b.w.preload; id++ {
			b.addLiveLocked(id)
		}
		b.mu.Unlock()
		b.h = h
		defer func() { b.h = nil }()
		return fn()
	})
	return setup, dataDir, err
}

// preload ingests IDs [0, preload) in batches. With several shards, two
// clients load disjoint halves of the shards, so every shard still receives
// its series in ascending ID order and builds the same tree on every run.
func (b *bench) preload(ctx context.Context, h *harness) error {
	clients := 1
	if b.w.shards > 1 {
		clients = maxClients
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var ids []int
			flush := func() error {
				status, body, err := h.do(ctx, "POST", "/v1/ingest/batch", b.data.ingestBody(ids))
				ids = ids[:0]
				if err != nil || status != 201 {
					return fmt.Errorf("setup: preload: status %d %.200s: %v", status, body, err)
				}
				return nil
			}
			for id := 0; id < b.w.preload && errs[c] == nil; id++ {
				if index.ShardOf(id, b.w.shards)%clients != c {
					continue
				}
				if ids = append(ids, id); len(ids) == preloadSize {
					errs[c] = flush()
				}
			}
			if len(ids) > 0 && errs[c] == nil {
				errs[c] = flush()
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// addLiveLocked makes id a delete target. Caller holds b.mu.
func (b *bench) addLiveLocked(id int) {
	b.livePos[id] = len(b.live)
	b.live = append(b.live, id)
}

// pickDeleteLocked removes and returns a random delete target. Caller
// holds b.mu.
func (b *bench) pickDeleteLocked() (int, bool) {
	if len(b.live) == 0 {
		return 0, false
	}
	i := b.delRng.IntN(len(b.live))
	id := b.live[i]
	last := b.live[len(b.live)-1]
	b.live[i] = last
	b.livePos[last] = i
	b.live = b.live[:len(b.live)-1]
	delete(b.livePos, id)
	return id, true
}

// runPhase runs one load phase for d.
func (b *bench) runPhase(ctx context.Context, kind phaseKind, d time.Duration) phase {
	switch kind {
	case phaseKNN:
		// Two clients where single queries are the workload's main phase,
		// one as a side phase: on 8 shards two clients kept both cores
		// busy with the fan-out, and the figures followed the scheduler.
		clients := 1
		if b.w.phases[0].kind == phaseKNN {
			clients = maxClients
		}
		base := b.nextKNN
		p := closedLoop(ctx, time.Now(), clients, d, 0, func(ctx context.Context, t0 time.Time, c, i int) record {
			qi := (base + i*clients + c) % len(b.knnBodies)
			r := record{kind: opKNN, arg: qi}
			b.h.send(ctx, t0, &r, "POST", "/v1/knn", b.knnBodies[qi])
			r.due = r.start
			return r
		})
		b.nextKNN += len(p.recs)
		return p
	case phaseBatch:
		base := b.nextBatch
		p := closedLoop(ctx, time.Now(), 1, d, 0, func(ctx context.Context, t0 time.Time, _, i int) record {
			bi := (base + i) % len(b.batchBodies)
			r := record{kind: opBatch, arg: bi}
			b.h.send(ctx, t0, &r, "POST", "/v1/knn/batch", b.batchBodies[bi])
			r.due = r.start
			return r
		})
		b.nextBatch += len(p.recs)
		return p
	case phaseWrite:
		// An ingest of fresh series, then deletes of series earlier ingests
		// of this phase added. Deletes slow down as the phase goes on, so a
		// turn is a fixed number of requests rather than a fixed time:
		// otherwise a faster host got further and measured slower deletes.
		// The turn still ends at twice its time on a host too slow for that.
		return closedLoop(ctx, time.Now(), 1, 2*d, int(d.Seconds()*writeRate), func(ctx context.Context, t0 time.Time, _, i int) record {
			if i%(writeDeletes+1) != 0 && len(b.writeAcked) > 0 {
				id := b.writeAcked[0]
				b.writeAcked = b.writeAcked[1:]
				r := record{kind: opDelete, ids: []int{id}}
				b.h.send(ctx, t0, &r, "DELETE", "/v1/series/"+strconv.Itoa(id), nil)
				r.due = r.start
				return r
			}
			ids := b.data.fresh(ingestSize)
			r := record{kind: opIngest, ids: ids}
			b.h.send(ctx, t0, &r, "POST", "/v1/ingest/batch", b.data.ingestBody(ids))
			r.due = r.start
			if r.ok() {
				b.writeAcked = append(b.writeAcked, ids...)
			}
			return r
		})
	default:
		return b.mixedPhase(ctx, d)
	}
}

// mixedPhase is the open-loop write/read mix of a durable workload.
func (b *bench) mixedPhase(ctx context.Context, d time.Duration) phase {
	// Each kind is due at evenly spaced times, offset by a different part
	// of its period, so that the kinds do not all fall due at once.
	var sched []scheduled
	add := func(kind opKind, rate, offset float64) {
		n := int(rate * d.Seconds())
		for j := 0; j < n; j++ {
			due := time.Duration((float64(j) + offset) / rate * float64(time.Second))
			sched = append(sched, scheduled{due: due, kind: kind, arg: j})
		}
	}
	add(opIngest, b.w.ingestRate, 0.5)
	add(opDelete, b.w.deleteRate, 0.25)
	add(opKNN, b.w.knnRate, 0.75)
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].due < sched[j].due })

	// Fresh series and request bodies are made before the clock starts.
	nIngest := int(b.w.ingestRate * d.Seconds())
	ingestIDs := make([][]int, nIngest)
	ingestBodies := make([][]byte, nIngest)
	for j := range ingestIDs {
		ingestIDs[j] = b.data.fresh(ingestSize)
		ingestBodies[j] = b.data.ingestBody(ingestIDs[j])
	}
	base := b.nextKNN
	b.nextKNN += int(b.w.knnRate * d.Seconds())
	// Writes and reads have a connection each, so that a read does not
	// wait behind a write's fsync in the client, and the two latencies
	// show the server's own interference between readers and writers.
	lane := func(s scheduled) int {
		if s.kind == opKNN {
			return 1
		}
		return 0
	}
	return openLoop(ctx, time.Now(), maxClients, lane, sched, func(ctx context.Context, t0 time.Time, s scheduled) record {
		switch s.kind {
		case opIngest:
			r := record{kind: opIngest, ids: ingestIDs[s.arg]}
			b.h.send(ctx, t0, &r, "POST", "/v1/ingest/batch", ingestBodies[s.arg])
			if r.ok() {
				b.mu.Lock()
				for _, id := range r.ids {
					b.addLiveLocked(id)
				}
				b.mu.Unlock()
			}
			return r
		case opDelete:
			b.mu.Lock()
			id, ok := b.pickDeleteLocked()
			b.mu.Unlock()
			r := record{kind: opDelete, ids: []int{id}}
			if !ok {
				r.err = fmt.Errorf("no live series to delete")
				return r
			}
			b.h.send(ctx, t0, &r, "DELETE", "/v1/series/"+strconv.Itoa(id), nil)
			return r
		default:
			qi := (base + s.arg) % len(b.knnBodies)
			r := record{kind: opKNN, arg: qi}
			b.h.send(ctx, t0, &r, "POST", "/v1/knn", b.knnBodies[qi])
			return r
		}
	})
}

// walBytes is the total size of the files in the WAL directory.
func walBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
