package index

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sapla/internal/dist"
)

// Deleter is implemented by indexes that can remove an entry by ID (both
// trees; the linear scan does not condense, so it opts out).
type Deleter interface {
	Delete(id int) bool
}

// BatchInserter is implemented by indexes with a batched ingest path that
// amortizes per-entry maintenance (the DBCH-tree's InsertBatch).
type BatchInserter interface {
	InsertBatch(entries []*Entry) error
}

// Compactor is implemented by indexes whose storage can fragment under
// deletes and be rebuilt (the DBCH-tree's arena).
type Compactor interface {
	// Fragmentation reports the dead fraction of the index's storage in [0,1].
	Fragmentation() float64
	// Compact rebuilds the storage without changing answers.
	Compact()
}

// DefaultReclaimBound is the default ceiling on retired-but-unreclaimed
// arena slots before writers start throttling. Override per index with
// SetReclaimBound; zero or negative disables the valve.
const DefaultReclaimBound = 1 << 16

// maxThrottleRounds bounds how long a writer backs off waiting for
// reclamation to catch up: a reader that dies while pinned must slow
// writers, not deadlock them. Past the bound the writer proceeds and the
// lag stays visible in ReclaimLag / the /metrics reclaim_lag_slots gauge.
const maxThrottleRounds = 100

// cowView is one published, immutable snapshot of a copy-on-write DBCH-tree:
// the tree pointer is a frozen shallow copy (snapshotCOW) and epoch is the
// mutation count it corresponds to. A view is never written after
// publication; readers load it with a single atomic pointer load.
type cowView struct {
	epoch uint64
	tree  *DBCH
}

// ConcurrentIndex makes any Index safe for concurrent readers and writers.
//
// When the wrapped index is a DBCH-tree, reads are lock-free and wait-free
// with respect to writers: mutations run under the exclusive lock, build
// new or copied arena nodes off to the side (copy-on-write — published
// nodes are never rewritten), and publish a new root+arena view through an
// atomic pointer. A search pins the epoch it observed, loads the current
// view, and traverses that immutable snapshot without ever touching the
// writer lock — a writer stalled mid-mutation, a slow ingest batch, or a
// compaction cannot delay it. Retired arena slots are recycled by an
// epoch-based reclamation pass that waits until every reader pin has
// advanced past the retirement, so an in-flight reader never observes a
// freed or repacked slot. If reclamation falls behind the configured bound
// (SetReclaimBound), writers throttle; readers never do.
//
// For any other Index the wrapper falls back to the lock-based contract:
// searches hold the shared lock for the whole traversal, mutations the
// exclusive lock.
//
// Every mutation advances an epoch counter, which gives callers a
// consistency token: two observations with equal epochs saw the identical
// tree. On the lock-free path the counter is the load/validate bracket the
// epochcheck analyzer verifies.
type ConcurrentIndex struct {
	// Lock-free read state. These fields sit before mu on purpose: they are
	// either written once at construction (cow) or accessed only through
	// atomics, never under the lock discipline lockguard enforces for the
	// fields below it.
	cow   *DBCH         // non-nil when inner is a DBCH-tree in COW mode
	epoch atomic.Uint64 // published mutation count; the read-path bracket
	view  atomic.Pointer[cowView]
	pins  readerPins
	hooks atomic.Pointer[FaultHooks]

	readRetries     atomic.Uint64 // lock-free reads that observed a concurrent publish and re-ran
	writerThrottles atomic.Uint64 // throttle rounds writers spent waiting on reclamation
	reclaimLag      atomic.Int64  // retired-but-unreclaimed slots after the last publish
	reclaimBound    atomic.Int64  // throttle valve threshold; <=0 disables

	mu       sync.RWMutex
	inner    Index
	pubEpoch uint64 // guarded by mu; bumped on every successful mutation
}

// NewConcurrent wraps inner for concurrent use. The caller must stop using
// inner directly: every access has to go through the wrapper. A DBCH-tree
// is switched to copy-on-write mutation and its initial view published
// before the wrapper is returned, so the tree must not be shared yet.
func NewConcurrent(inner Index) *ConcurrentIndex {
	var cowT *DBCH
	if d, ok := inner.(*DBCH); ok {
		cowT = d
	}
	c := &ConcurrentIndex{inner: inner, cow: cowT}
	c.reclaimBound.Store(DefaultReclaimBound)
	if cowT != nil {
		cowT.enableCOW()
		c.view.Store(&cowView{tree: cowT.snapshotCOW()})
	}
	return c
}

// SetFaultHooks installs (or clears, with nil) fault-injection hooks for
// robustness tests. The pointer is published atomically; hooks take effect
// for operations that start after the call.
func (c *ConcurrentIndex) SetFaultHooks(h *FaultHooks) { c.hooks.Store(h) }

// SetReclaimBound sets the retired-slot ceiling past which writers throttle
// to let reclamation catch up. Zero or negative disables throttling (lag
// stays observable via ReclaimLag).
func (c *ConcurrentIndex) SetReclaimBound(n int) { c.reclaimBound.Store(int64(n)) }

// ReadRetries reports how many lock-free reads observed a concurrent
// publish mid-traversal and re-ran against the newer view.
func (c *ConcurrentIndex) ReadRetries() uint64 { return c.readRetries.Load() }

// WriterThrottles reports how many backoff rounds writers have spent
// waiting for reclamation to drop below the bound.
func (c *ConcurrentIndex) WriterThrottles() uint64 { return c.writerThrottles.Load() }

// ReclaimLag reports the number of retired arena slots not yet reclaimed —
// memory held for in-flight (or stalled) readers pinning old epochs.
func (c *ConcurrentIndex) ReclaimLag() int {
	if c.cow == nil {
		return 0
	}
	return int(c.reclaimLag.Load())
}

// commitLocked records a successful mutation: under copy-on-write it
// publishes the new view and runs the reclamation/throttle pass, otherwise
// it just advances the locked-mode epoch. Callers hold the exclusive lock.
func (c *ConcurrentIndex) commitLocked() {
	if c.cow == nil {
		c.pubEpoch++
		return
	}
	c.publishLocked()
	c.throttleLocked()
}

// publishLocked seals the mutation window into a new immutable view and
// makes it visible to lock-free readers. Order matters: the view pointer is
// stored before the epoch, so a reader that pins epoch e is guaranteed to
// load a view published at or after e — every slot such a view references
// is either live or retired with a stamp >= e, and reclamation frees a
// stamp-s slot only once all pins exceed s. The WriterStall hook runs
// before publication: a writer frozen there leaves readers on the old view
// indefinitely, which is exactly the wait-freedom the fault tests assert.
func (c *ConcurrentIndex) publishLocked() {
	if h := c.hooks.Load(); h != nil && h.WriterStall != nil {
		h.WriterStall()
	}
	c.pubEpoch++
	c.view.Store(&cowView{epoch: c.pubEpoch, tree: c.cow.snapshotCOW()})
	c.epoch.Store(c.pubEpoch)
	// Retirements made while building epoch N+1 are referenced only by
	// views <= N: stamp them N so they free as soon as every pin passes N.
	c.cow.cowStamp = c.pubEpoch
	skip := false
	if h := c.hooks.Load(); h != nil && h.ReclaimDelay != nil {
		skip = h.ReclaimDelay()
	}
	if !skip {
		c.cow.reclaimCOW(c.pins.min())
	}
	c.reclaimLag.Store(int64(c.cow.retireLag()))
}

// throttleLocked is the degradation valve: when retired-but-unreclaimed
// slots exceed the configured bound, the writer (never a reader) backs off
// and re-runs reclamation until the lag drains or the round cap trips. The
// cap keeps a dead pinned reader from deadlocking ingest — past it the
// writer proceeds and the lag remains visible in metrics.
func (c *ConcurrentIndex) throttleLocked() {
	bound := c.reclaimBound.Load()
	if bound <= 0 {
		return
	}
	for round := 0; round < maxThrottleRounds; round++ {
		if int64(c.cow.retireLag()) <= bound {
			return
		}
		c.writerThrottles.Add(1)
		if h := c.hooks.Load(); h != nil && h.ThrottleWait != nil {
			h.ThrottleWait()
		} else {
			time.Sleep(100 * time.Microsecond)
		}
		c.cow.reclaimCOW(c.pins.min())
		c.reclaimLag.Store(int64(c.cow.retireLag()))
	}
}

// Insert implements Index under the exclusive lock; under copy-on-write the
// mutation copies its path off to the side and commit publishes it, so
// concurrent readers keep answering from the previous view throughout.
func (c *ConcurrentIndex) Insert(e *Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.inner.Insert(e); err != nil {
		return err
	}
	c.commitLocked()
	return nil
}

// InsertBatch adds a batch of entries under one exclusive lock acquisition,
// advancing the epoch once per batch: the intermediate states are never
// published, so they get no epoch of their own. It falls back to per-entry
// Insert calls (still under the single lock hold) when the wrapped index
// has no batch path.
func (c *ConcurrentIndex) InsertBatch(entries []*Entry) error {
	if len(entries) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.inner.(BatchInserter); ok {
		if err := b.InsertBatch(entries); err != nil {
			return err
		}
	} else {
		for _, e := range entries {
			if err := c.inner.Insert(e); err != nil {
				return err
			}
		}
	}
	c.commitLocked()
	return nil
}

// Compact rebuilds the wrapped index's storage when its fragmentation is at
// least minFragmentation, reporting whether a rebuild ran. Compaction never
// changes answers, but it does move memory, so it still advances the epoch:
// epoch equality promises bit-identical traversal state, not just identical
// contents. Under copy-on-write the rebuild goes into wholly fresh arenas
// and is published like any other mutation — in-flight readers finish on
// the old arrays, which the garbage collector reclaims once the last view
// referencing them drains.
func (c *ConcurrentIndex) Compact(minFragmentation float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	comp, ok := c.inner.(Compactor)
	if !ok || comp.Fragmentation() < minFragmentation {
		return false
	}
	comp.Compact()
	c.commitLocked()
	return true
}

// Delete removes the entry with the given ID under the exclusive lock. It
// returns false when the ID is absent or the wrapped index cannot delete.
// Under copy-on-write the condensed path is copied before it is written and
// the displaced nodes are retired, not freed: a reader mid-traversal on the
// previous view still finds every one of them intact.
func (c *ConcurrentIndex) Delete(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.inner.(Deleter)
	if !ok {
		return false
	}
	if !d.Delete(id) {
		return false
	}
	c.commitLocked()
	return true
}

// Len implements Index. On the lock-free path the count comes from the
// current published view — a scalar frozen into the snapshot, so no pin is
// needed.
func (c *ConcurrentIndex) Len() int {
	if c.cow != nil {
		return c.view.Load().tree.Len()
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.inner.Len()
}

// Epoch returns the current mutation epoch. Epochs are monotone: every
// mutation advances the counter exactly once, so an optimistic reader can
// bracket a snapshot read — load the epoch, read the state, and accept the
// read only if a second load observes the same value. On the lock-free path
// that bracket is exactly what KNNSnapshot runs (and the epochcheck
// analyzer verifies).
func (c *ConcurrentIndex) Epoch() uint64 {
	if c.cow != nil {
		return c.epochLF()
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.pubEpoch
}

// epochLF reads the published epoch without touching the lock.
func (c *ConcurrentIndex) epochLF() uint64 {
	return c.epoch.Load()
}

// KNN implements Index by borrowing a pooled workspace around KNNWith.
func (c *ConcurrentIndex) KNN(q dist.Query, k int) ([]Result, SearchStats, error) {
	return pooledKNN(c, q, k)
}

// KNNWith implements WorkspaceSearcher. The results correspond to one
// consistent tree snapshot: an immutable published view on the lock-free
// path, the lock-held tree otherwise.
//
//sapla:noalloc
func (c *ConcurrentIndex) KNNWith(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, error) {
	res, stats, _, err := c.KNNSnapshot(ws, q, k)
	return res, stats, err
}

// KNNSnapshot is KNNWith plus the epoch the answers correspond to — the
// version of the tree that produced the results. On the lock-free path the
// search runs the pin/load/validate bracket without ever taking the lock,
// so it completes even while a writer is stalled mid-mutation.
//
//sapla:noalloc
func (c *ConcurrentIndex) KNNSnapshot(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, uint64, error) {
	if c.cow != nil {
		return c.knnSnapshotLF(ws, q, k, math.Inf(1))
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	epoch := c.pubEpoch
	if s, ok := c.inner.(WorkspaceSearcher); ok {
		res, stats, err := s.KNNWith(ws, q, k)
		return res, stats, epoch, err
	}
	res, stats, err := c.inner.KNN(q, k)
	return res, stats, epoch, err
}

// knnSnapshotLF is the lock-free KNNSnapshot. Any loaded view is internally
// consistent (it is an immutable snapshot), so a single attempt already
// returns correct answers; when the validate step observes that a publish
// landed mid-traversal, the read re-runs once against the newer view and
// counts a retry. One retry is the cap — the second attempt's answers are
// correct regardless of further publishes — which keeps the read wait-free.
//
//sapla:noalloc
func (c *ConcurrentIndex) knnSnapshotLF(ws *Workspace, q dist.Query, k int, bound float64) ([]Result, SearchStats, uint64, error) {
	res, stats, epoch, ok, err := c.tryKNNLF(ws, q, k, bound)
	if ok {
		return res, stats, epoch, err
	}
	c.readRetries.Add(1)
	res, stats, epoch, _, err = c.tryKNNLF(ws, q, k, bound)
	return res, stats, epoch, err
}

// knnBounded is KNNWith seeded with an upper bound on the k-th distance the
// caller needs (see DBCH.knnBounded). Only the lock-free DBCH path prunes
// with it; other trees search unseeded, which returns a superset.
//
//sapla:noalloc
func (c *ConcurrentIndex) knnBounded(ws *Workspace, q dist.Query, k int, bound float64) ([]Result, SearchStats, error) {
	if c.cow == nil {
		return c.KNNWith(ws, q, k)
	}
	res, stats, _, err := c.knnSnapshotLF(ws, q, k, bound)
	return res, stats, err
}

// tryKNNLF runs one lock-free k-NN attempt: load the epoch, pin it, load
// the view, traverse, unpin, and validate that the epoch did not move. The
// pin is stored before the view load, so the loaded view was published at
// or after the pinned epoch — the ordering reclamation relies on to never
// free a slot the view can still reach.
//
//sapla:noalloc
func (c *ConcurrentIndex) tryKNNLF(ws *Workspace, q dist.Query, k int, bound float64) ([]Result, SearchStats, uint64, bool, error) {
	pin := c.epoch.Load()
	slot := c.pins.acquire(pin)
	v := c.view.Load()
	if h := c.hooks.Load(); h != nil && h.ReaderStall != nil {
		h.ReaderStall()
	}
	res, stats, err := v.tree.knnBounded(ws, q, k, bound)
	c.pins.release(slot)
	cur := c.epoch.Load()
	return res, stats, v.epoch, cur == pin, err
}

// Range implements RangeSearcher when the wrapped index does; otherwise it
// returns empty results. The lock-free path runs the same pin/load/validate
// bracket as KNNSnapshot.
func (c *ConcurrentIndex) Range(q dist.Query, radius float64) ([]Result, SearchStats, error) {
	if c.cow != nil {
		res, stats, ok, err := c.tryRangeLF(q, radius)
		if ok {
			return res, stats, err
		}
		c.readRetries.Add(1)
		res, stats, _, err = c.tryRangeLF(q, radius)
		return res, stats, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.inner.(RangeSearcher)
	if !ok {
		return nil, SearchStats{}, nil
	}
	return r.Range(q, radius)
}

// tryRangeLF runs one lock-free range attempt under the pin/load/validate
// bracket; see tryKNNLF for the ordering argument.
func (c *ConcurrentIndex) tryRangeLF(q dist.Query, radius float64) ([]Result, SearchStats, bool, error) {
	pin := c.epoch.Load()
	slot := c.pins.acquire(pin)
	v := c.view.Load()
	if h := c.hooks.Load(); h != nil && h.ReaderStall != nil {
		h.ReaderStall()
	}
	res, stats, err := v.tree.Range(q, radius)
	c.pins.release(slot)
	cur := c.epoch.Load()
	return res, stats, cur == pin, err
}

// View runs f with the wrapped index under the shared lock — for read-only
// inspection (Stats, diagnostics) that needs the concrete type. Writers are
// excluded for the duration (they hold the exclusive lock in both modes),
// so f sees quiescent writer-side state; lock-free readers continue
// unimpeded on their published views. f must not mutate the index or retain
// it past the call.
func (c *ConcurrentIndex) View(f func(Index)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f(c.inner)
}
