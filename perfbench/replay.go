package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/aem"
	"repro/internal/dict"
)

// replayShard is one shard of the replay: the tree the service would
// build, on a machine whose storage times every call.
type replayShard struct {
	ma    *aem.Machine
	tree  *dict.BufferTree
	store *timedStorage
	snap  *dict.TreeSnapshot
	sc    *dict.GetScratch
}

// plainReader reads blocks without timing or counting; sampled
// allocation probes use it so they leave the replay's figures alone.
type plainReader struct{ aem.Storage }

func (r plainReader) ReadBlock(a aem.Addr, dst []aem.Item) []aem.Item { return r.ReadInto(a, dst) }

// replayRun holds what the replay of one service round measured.
type replayRun struct {
	apply, step, snap, get, rng   []float64 // span work (ns); step counts working steps only
	writeWork                     []float64 // Apply+FlushStep+Snapshot per write (ns)
	getBlocks, rangeBlocks, scans int64
	snapReads                     int64 // every snapshot block read, preload included
	nodeFlushes                   int64
	height, memPeak               int
	io                            ioAgg // storage calls during the measured ops
	phase                         map[string]aem.Stats
	snapBytes, rangeBytes         []float64
	reads, writes                 int64 // machine totals, preload included
}

// replayedPhases are the buffer tree's machine phases reported per op.
var replayedPhases = []string{"dict-append", "dict-flush", "dict-rebuild"}

// replay re-executes a service round's committed op sequence directly on
// the layers below the service: dict.NewBufferTree on aem.NewWithStorage
// over timing storage, with the service's shard split, one Apply per
// write, FlushStep(1) per write when deamortized, and a Snapshot per
// write, and — when deamortized — the committer's idle work (retire all
// debt, then Compact) after every op, as the service does while its one
// client is busy elsewhere. Reads go through TreeSnapshot.Get/Range.
// Spans cover the measured ops; the preload is replayed under one span.
func replay(w *dictWorkload, rd *round, tr *tracer) *replayRun {
	rt := router{0, w.keyspace, w.shards}
	shards := make([]*replayShard, w.shards)
	for i := range shards {
		st := &timedStorage{Storage: aem.NewSliceStorage(), tr: tr}
		ma := aem.NewWithStorage(w.machine, st)
		tree := dict.NewBufferTree(ma)
		tree.EnableTailStaging()
		if w.deamortize {
			tree.Deamortize()
		}
		shards[i] = &replayShard{ma: ma, tree: tree, store: st, snap: tree.Snapshot(), sc: dict.NewGetScratch(w.machine.B)}
	}
	out := &replayRun{phase: make(map[string]aem.Stats)}
	root := tr.begin(spanReplay, -1, -1)

	// rec is the span recorder: nil while preloading, so preload storage
	// calls aggregate into the preload span alone.
	var rec *tracer
	var writes int
	write := func(op dict.Op, req int) {
		sh := shards[rt.shardFor(op.Key)]
		sp := rec.begin(spanApply, root, req)
		sh.tree.Apply([]dict.Op{op})
		rec.end(sp)
		work := float64(rec.work(sp))
		out.apply = append(out.apply, work)
		if w.deamortize {
			sp = rec.begin(spanFlushStep, root, req)
			n := sh.tree.FlushStep(1)
			rec.end(sp)
			work += float64(rec.work(sp))
			if n > 0 {
				out.step = append(out.step, float64(rec.work(sp)))
			}
		}
		sp = rec.begin(spanSnapshot, root, req)
		sh.snap = sh.tree.Snapshot()
		rec.end(sp)
		work += float64(rec.work(sp))
		out.snap = append(out.snap, float64(rec.work(sp)))
		out.writeWork = append(out.writeWork, work)
		if writes++; rec != nil && writes%512 == 0 {
			a := totalAlloc()
			sh.tree.Snapshot()
			out.snapBytes = append(out.snapBytes, float64(totalAlloc()-a))
		}
	}
	get := func(key int64, req int) {
		sh := shards[rt.shardFor(key)]
		sp := rec.begin(spanSnapGet, root, req)
		_, _, n := sh.snap.Get(sh.store, key, sh.sc)
		rec.end(sp)
		out.get = append(out.get, float64(rec.work(sp)))
		out.getBlocks += n
		out.snapReads += n
	}
	scan := func(lo, hi int64, req int) {
		rt.segments(lo, hi, func(i int, a, b int64) {
			sh := shards[i]
			sp := rec.begin(spanSnapRange, root, req)
			_, n := sh.snap.Range(sh.store, a, b)
			rec.end(sp)
			out.rng = append(out.rng, float64(rec.work(sp)))
			out.rangeBlocks += n
			out.snapReads += n
			if rec != nil && out.scans%64 == 0 {
				m := totalAlloc()
				sh.snap.Range(plainReader{sh.store.Storage}, a, b)
				out.rangeBytes = append(out.rangeBytes, float64(totalAlloc()-m))
			}
		})
		out.scans++
	}
	// idle retires debt the way the service's committer does while its
	// queue is empty: one FlushStep at a time, then the rebuild check.
	idle := func() {
		for _, sh := range shards {
			for sh.tree.Debt() > 0 {
				sp := rec.begin(spanFlushStep, root, -1)
				n := sh.tree.FlushStep(1)
				rec.end(sp)
				if n > 0 {
					out.step = append(out.step, float64(rec.work(sp)))
				}
			}
			if sh.tree.Compact() {
				sh.snap = sh.tree.Snapshot()
			}
		}
	}
	flush := func() {
		for _, sh := range shards {
			sp := rec.begin(spanTreeFlush, root, -1)
			sh.tree.Flush()
			rec.end(sp)
			sh.snap = sh.tree.Snapshot()
		}
	}

	pre := tr.begin(spanPreload, root, -1)
	for i, op := range rd.preload {
		write(op, i)
	}
	if len(rd.preload) > 0 {
		flush()
	}
	tr.end(pre)
	out.apply, out.step, out.snap, out.writeWork = out.apply[:0], out.step[:0], out.snap[:0], out.writeWork[:0]

	rec = tr
	ioBefore := tr.io
	var flushesBefore int64
	phaseBefore := make(map[string]aem.Stats)
	for _, sh := range shards {
		flushesBefore += sh.tree.NodeFlushes()
		for _, p := range replayedPhases {
			phaseBefore[p] = phaseBefore[p].Add(sh.ma.Phases().Phase(p))
		}
	}
	for i, op := range rd.stream {
		switch op.Kind {
		case dict.Insert, dict.Delete:
			write(op, i)
		case dict.Lookup:
			get(op.Key, i)
		case dict.RangeScan:
			scan(op.Key, op.Hi, i)
		}
		if w.deamortize {
			idle()
		}
	}
	out.io = tr.io.sub(ioBefore)
	for _, sh := range shards {
		out.nodeFlushes += sh.tree.NodeFlushes()
		out.height = max(out.height, sh.tree.Height())
		for _, p := range replayedPhases {
			out.phase[p] = out.phase[p].Add(sh.ma.Phases().Phase(p))
		}
	}
	out.nodeFlushes -= flushesBefore
	for _, p := range replayedPhases {
		out.phase[p] = out.phase[p].Sub(phaseBefore[p])
	}

	// The service round closes with a Flush and a whole-keyspace scan.
	flush()
	scan(0, w.keyspace, -1)
	tr.end(root)
	for _, sh := range shards {
		st := sh.ma.Stats()
		out.reads += st.Reads
		out.writes += st.Writes
		out.memPeak = max(out.memPeak, sh.ma.MemPeak())
		sh.ma.Close()
	}
	return out
}

// agreement compares the replay's machine I/O and snapshot block count
// with the service's Stats. tol is the allowed relative difference: 0 on
// amortized workloads, where the commit path is a pure function of the
// op sequence; deamortized services also retire debt in idle time, so
// their node-flush timing, and the structure reads see, depend on
// scheduling.
func agreement(w *dictWorkload, rd *round, rp *replayRun) (ioDiff, snapDiff float64, ok bool) {
	tol := 0.0
	if w.deamortize {
		tol = deamortizedTolerance
	}
	ioDiff = relDiff(float64(rp.reads+rp.writes), float64(rd.after.Reads+rd.after.Writes))
	snapDiff = relDiff(float64(rp.snapReads), float64(rd.after.SnapReads))
	ok = ioDiff <= tol && snapDiff <= tol
	if !w.deamortize {
		ok = rp.reads == rd.after.Reads && rp.writes == rd.after.Writes && rp.snapReads == rd.after.SnapReads
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: %s: replay disagrees with the service (tolerance %.0f%%): reads %d vs %d, writes %d vs %d, snapshot reads %d vs %d\n",
			w.name, tol*100, rp.reads, rd.after.Reads, rp.writes, rd.after.Writes, rp.snapReads, rd.after.SnapReads)
	}
	return ioDiff, snapDiff, ok
}

// deamortizedTolerance bounds replay-vs-service disagreement on
// deamortized workloads. On one P the committer retires its idle work
// before the client runs again, as the replay does, and drift runs
// differ by under 1% in machine I/O; a preemption mid-retirement moves
// that work behind the next write.
const deamortizedTolerance = 0.10

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}
