package rrset

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// sampleBlockSize is the number of consecutive sample indices a worker
// claims per steal. Small enough that skewed RR-set sizes rebalance,
// large enough that the atomic counter stays out of the profile.
const sampleBlockSize = 64

// shard is one worker's private append-only arena. A worker appends the
// nodes of every set it samples to nodes and closes each set by pushing
// the running length onto offsets, so set k of the shard (in the order
// the worker produced it) spans nodes[offsets[k-1]:offsets[k]] (with an
// implicit leading 0). Which sets land in which shard depends on the
// work-stealing schedule; the store's block directory recovers the
// deterministic sample order on the read side.
type shard struct {
	nodes   []int32
	offsets []int64 // absolute end offset in nodes of each completed set
}

// closeSet completes the set whose nodes were appended since the last
// call (or since the shard's creation).
func (sh *shard) closeSet() { sh.offsets = append(sh.offsets, int64(len(sh.nodes))) }

// blockLoc locates one sampling block's sets inside a shard: the block's
// sets are consecutive entries of shards[shard].offsets starting at off.
// Every blockLoc is written exactly once, by the worker that claimed the
// block, before the block's first set is sampled.
type blockLoc struct {
	shard int32
	off   int64 // index in shard.offsets of the block's first set
}

// run records the block geometry of one extend call. Blocks within a run
// all hold sampleBlockSize*setsPerSample sets except the last, so a
// global set index resolves to a block with one division once its run is
// found. Runs are append-only and sorted by firstSet.
type run struct {
	firstSet  int64 // global set index of the run's first set
	blockBase int64 // index in store.blocks of the run's first block
}

// store is the sharded flattened-set storage shared by Collection and
// MRRCollection (and snapshotted by their read-side views). Writers are
// the work-stealing blocks of extend; readers go through set, which maps
// a global set index through the run/block directory to a shard arena.
// Appending never moves previously written set data: shard arenas grow
// in place (amortized append), so there is no post-sampling stitch copy
// and existing snapshots stay valid while the store grows.
type store struct {
	shards        []shard
	blocks        []blockLoc
	runs          []run
	setsPerSample int   // sets appended per sample index (ℓ for MRR, 1 otherwise)
	numSets       int64 // total sets stored, Σ runs' counts
}

// extend runs a sampling pass over sample indices [0, count) as a new
// run, distributing fixed-size blocks of indices to GOMAXPROCS workers
// via an atomic counter: a worker that finishes a block of small sets
// immediately claims the next unclaimed block (work stealing), so no
// static partition can strand work behind a straggler. worker is the
// per-goroutine state factory — called once per spawned worker with the
// worker's index (stable across runs: worker w always owns shards[w]), it
// returns the closure invoked per sample index, which must append
// exactly setsPerSample sets to the shard it is handed (closing each
// with closeSet). The factory indirection keeps the store agnostic of
// the sampling substrate (single-graph walker or multiplex walker).
// Worker w owns shards[w] for the duration of the run; shards are
// reused (and grown in place) across runs, and the block directory
// entries are pre-allocated here and written by their owning workers,
// so the run finishes with no stitch pass of any kind.
func (st *store) extend(count int, worker func(w int) func(i int, sh *shard)) {
	if count <= 0 {
		return
	}
	numBlocks := (count + sampleBlockSize - 1) / sampleBlockSize
	blockBase := int64(len(st.blocks))
	st.blocks = append(st.blocks, make([]blockLoc, numBlocks)...)
	st.runs = append(st.runs, run{firstSet: st.numSets, blockBase: blockBase})
	// GOMAXPROCS workers, capped by the run's block count (a worker with
	// no block to claim would idle).
	workers := runtime.GOMAXPROCS(0)
	if workers > numBlocks {
		workers = numBlocks
	}
	for len(st.shards) < workers {
		st.shards = append(st.shards, shard{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := &st.shards[w]
			fn := worker(w)
			for {
				b := int(next.Add(1)) - 1
				if b >= numBlocks {
					return
				}
				st.blocks[blockBase+int64(b)] = blockLoc{shard: int32(w), off: int64(len(sh.offsets))}
				lo := b * sampleBlockSize
				hi := lo + sampleBlockSize
				if hi > count {
					hi = count
				}
				for i := lo; i < hi; i++ {
					fn(i, sh)
				}
			}
		}(w)
	}
	wg.Wait()
	st.numSets += int64(count) * int64(st.setsPerSample)
}

// set returns the s-th set in global (deterministic) order, aliasing
// shard storage. The run is found by binary search (collections built in
// one pass have a single run; each growth step or ExtendToCtx chunk adds
// one), the block by one division, and the set bounds by two loads
// from the shard's offsets — blocks claimed by one worker are laid
// back-to-back in its shard, so offsets[o-1] is the set's start even
// across block boundaries.
func (st *store) set(s int64) []int32 {
	runs := st.runs
	lo, hi := 0, len(runs)
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); runs[mid].firstSet <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	r := runs[lo]
	rel := s - r.firstSet
	spb := int64(sampleBlockSize * st.setsPerSample)
	loc := st.blocks[r.blockBase+rel/spb]
	sh := &st.shards[loc.shard]
	o := loc.off + rel%spb
	start := int64(0)
	if o > 0 {
		start = sh.offsets[o-1]
	}
	return sh.nodes[start:sh.offsets[o]]
}

// compactPrefix returns a store holding the first numSamples samples of
// st (numSamples·setsPerSample sets, in deterministic order), re-packed
// into a single shard with exact-fit arenas. It is the storage half of
// ShrinkTo — the copy owns its memory, so dropping the source store
// actually releases the tail samples (and any slack capacity the
// append-only shards accumulated). The shard holds every set in the
// order of a single serial worker, so the directory is one run whose
// blocks lie back-to-back in shard 0.
func (st *store) compactPrefix(numSamples int) store {
	numSets := int64(numSamples) * int64(st.setsPerSample)
	total := int64(0)
	for s := int64(0); s < numSets; s++ {
		total += int64(len(st.set(s)))
	}
	sh := shard{nodes: make([]int32, 0, total), offsets: make([]int64, 0, numSets)}
	for s := int64(0); s < numSets; s++ {
		sh.nodes = append(sh.nodes, st.set(s)...)
		sh.closeSet()
	}
	spb := int64(sampleBlockSize * st.setsPerSample)
	blocks := make([]blockLoc, (numSets+spb-1)/spb)
	for b := range blocks {
		blocks[b] = blockLoc{shard: 0, off: int64(b) * spb}
	}
	return store{shards: []shard{sh}, blocks: blocks, runs: []run{{}}, setsPerSample: st.setsPerSample, numSets: numSets}
}

// memUsage returns the store's resident bytes: shard arenas (capacity,
// not length — append-only growth retains its slack) and the block/run
// directory.
func (st *store) memUsage() int64 {
	b := int64(0)
	for i := range st.shards {
		sh := &st.shards[i]
		b += int64(cap(sh.nodes))*4 + int64(cap(sh.offsets))*8
	}
	b += int64(cap(st.blocks)) * 16 // blockLoc: int32 + int64, padded
	b += int64(cap(st.runs)) * 16
	return b
}

// totalSize returns the summed cardinality of all stored sets.
func (st *store) totalSize() int {
	total := 0
	for i := range st.shards {
		total += len(st.shards[i].nodes)
	}
	return total
}

// numShards returns the number of shard arenas backing the store.
func (st *store) numShards() int { return len(st.shards) }

// snapshot returns a read-only copy of the store. The shard slice is
// copied by value so later extends — which append to the live shards'
// slices, possibly reallocating their headers — cannot disturb the
// snapshot; directory slices are capped so the snapshot never observes
// entries appended later. Set data is never mutated in place, so the
// snapshot's sets stay bit-identical forever.
func (st *store) snapshot() store {
	cp := *st
	cp.shards = append([]shard(nil), st.shards...)
	cp.blocks = st.blocks[:len(st.blocks):len(st.blocks)]
	cp.runs = st.runs[:len(st.runs):len(st.runs)]
	return cp
}
