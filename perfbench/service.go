package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/dict"
	"repro/internal/dictsrv"
)

// minRounds is the fewest rounds a run makes, so every median (set-up
// time included) is taken over at least three samples.
const minRounds = 3

// gcEvery is how many measured ops run between two garbage collections.
// While a round's ops run, the pacer is off and the client collects
// between ops every gcEvery ops, inside wall_s but outside every op's
// latency. Left to the pacer, a collection's concurrent mark shares the
// one P with the committer, so the slowest 0.1% of Puts were the ones
// that overlapped a mark: drift's put_p999_us read 64, 43 and 14 us at
// GOGC 100, 400 and 1600, and it moved with the host's speed, which
// decides how many ops a mark overlaps. Collected every 8,192 ops
// (about 37 MiB of garbage at both workloads' 4.6 KB per op), drift's
// put_p999_us is the commit path's own tail, about 10 us. The
// collections' cost stays in wall_s and ops_per_s, and
// alloc_bytes_per_op counts the garbage.
const gcEvery = 8192

// latency classes, indexing round.lat.
const (
	latPut  = iota // Put and Delete
	latGet         // Get
	latScan        // Scan
)

// round is one measured pass over a fresh service.
type round struct {
	genNS, setupNS, wallNS int64
	lat                    [3][]float64 // ns
	ops                    int64
	checks, failed         int64
	cost                   int64  // Q of the measured ops and the closing Flush
	alloc                  uint64 // heap bytes allocated while the ops ran
	before, flushed        dictsrv.Stats
	after                  dictsrv.Stats // flushed plus the final check's Scan
	stream, preload        []dict.Op
}

// serveRound generates the workload's streams, builds and preloads a
// service (set-up), drives every op from this goroutine, checks each
// answer against the sequential model, then flushes and checks the
// whole keyspace once more. tr, when non-nil, records one span per op.
func serveRound(w *dictWorkload, seed uint64, tr *tracer, plantWrong bool) (*round, error) {
	rd := &round{}
	t0 := time.Now()
	rd.stream = w.gen(seed, w.ops, w.keyspace)
	if w.preload > 0 {
		rd.preload = preloadOps(seed, w.preload)
	}
	rd.genNS = time.Since(t0).Nanoseconds()

	svc, err := dictsrv.New(dictsrv.Config{
		Shards: w.shards, Machine: w.machine, KeyLo: 0, KeyHi: w.keyspace, Deamortize: w.deamortize,
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	m := newModel(w.keyspace)
	for _, op := range rd.preload {
		svc.Put(op.Key, op.Value)
		m.apply(op)
	}
	if len(rd.preload) > 0 {
		svc.Flush()
	}
	runtime.GC() // every round's ops start from a collected heap
	rd.setupNS = time.Since(t0).Nanoseconds()

	for i := range rd.lat {
		rd.lat[i] = make([]float64, 0, len(rd.stream))
	}
	check := func(ok bool, format string, a ...interface{}) {
		rd.checks++
		if !ok {
			if rd.failed < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s: wrong answer: %s\n", w.name, fmt.Sprintf(format, a...))
			}
			rd.failed++
		}
	}
	root := tr.begin(spanServeRound, -1, -1)
	rd.before = svc.Stats()
	a0 := totalAlloc()
	gcPercent := debug.SetGCPercent(-1)
	start := time.Now()
	for i, op := range rd.stream {
		if i > 0 && i%gcEvery == 0 {
			runtime.GC()
		}
		switch op.Kind {
		case dict.Insert:
			sp := tr.begin(spanSvcPut, root, i)
			ack := svc.Put(op.Key, op.Value)
			tr.end(sp)
			rd.lat[latPut] = append(rd.lat[latPut], float64(ack.LatencyNS))
		case dict.Delete:
			sp := tr.begin(spanSvcPut, root, i)
			ack := svc.Delete(op.Key)
			tr.end(sp)
			rd.lat[latPut] = append(rd.lat[latPut], float64(ack.LatencyNS))
		case dict.Lookup:
			sp := tr.begin(spanSvcGet, root, i)
			res := svc.Get(op.Key)
			tr.end(sp)
			rd.lat[latGet] = append(rd.lat[latGet], float64(res.LatencyNS))
			if plantWrong {
				res.Value, res.OK, plantWrong = res.Value+1, true, false
			}
			want, ok := m.get(op.Key)
			check(res.OK == ok && (!ok || res.Value == want),
				"op %d Get(%d) = (%d, %v), want (%d, %v)", i, op.Key, res.Value, res.OK, want, ok)
		case dict.RangeScan:
			sp := tr.begin(spanSvcScan, root, i)
			res := svc.Scan(op.Key, op.Hi)
			tr.end(sp)
			rd.lat[latScan] = append(rd.lat[latScan], float64(res.LatencyNS))
			check(m.scanMatches(op.Key, op.Hi, res.Hits), "op %d Scan(%d, %d): %d hits disagree with the model", i, op.Key, op.Hi, len(res.Hits))
		}
		m.apply(op)
	}
	rd.wallNS = time.Since(start).Nanoseconds()
	debug.SetGCPercent(gcPercent)
	rd.alloc = totalAlloc() - a0
	rd.ops = int64(len(rd.stream))

	sp := tr.begin(spanSvcFlush, root, -1)
	svc.Flush()
	tr.end(sp)
	rd.flushed = svc.Stats()
	final := svc.Scan(0, w.keyspace)
	check(m.scanMatches(0, w.keyspace, final.Hits), "after the final Flush: %d live keys disagree with the model", len(final.Hits))
	rd.after = svc.Stats()
	tr.end(root)
	rd.cost = rd.flushed.Cost - rd.before.Cost
	return rd, nil
}

// samples collects one run's end-to-end figures per round; the result
// reports their medians, so one round slowed by a noisy neighbour or a
// GC pause moves no figure.
type samples struct {
	setup, wall, q, alloc []float64
	pct                   [len(pctMetrics)][]float64
	done                  float64 // ops (grid points for registry) completed
	measuredNS            int64
}

// pctMetrics are the latency metrics: class, percentile, name.
var pctMetrics = [...]struct {
	class int
	p     float64
	name  string
}{
	{latPut, 50, "put_p50_us"}, {latPut, 99.9, "put_p999_us"},
	{latGet, 50, "get_p50_us"}, {latGet, 99, "get_p99_us"},
	{latScan, 50, "scan_p50_us"}, {latScan, 99, "scan_p99_us"},
}

// add records one round; q and alloc are already per op, lat in ns.
func (s *samples) add(setupNS, wallNS int64, done, q, alloc float64, lat *[3][]float64) {
	s.setup = append(s.setup, float64(setupNS)/1e9)
	s.wall = append(s.wall, float64(wallNS)/1e9)
	s.q = append(s.q, q)
	s.alloc = append(s.alloc, alloc)
	s.done += done
	s.measuredNS += wallNS
	for i, m := range pctMetrics {
		s.pct[i] = append(s.pct[i], percentile(lat[m.class], m.p)/1e3)
	}
}

// report sets every end-to-end metric.
func (s *samples) report(res *result) {
	res.set("setup_s", median(s.setup), "s")
	res.set("wall_s", median(s.wall), "s")
	res.set("ops_per_s", ratio(s.done, float64(s.measuredNS)/1e9), "1/s")
	for i, m := range pctMetrics {
		res.set(m.name, median(s.pct[i]), "us")
	}
	res.set("q_per_op", median(s.q), "io/op")
	res.set("alloc_bytes_per_op", median(s.alloc), "B/op")
	res.set("rss_peak_mb", rssPeakMB(), "MiB")
	res.Correct = res.Failed == 0
}

// benchDict measures a service workload untraced, over rounds(--seconds)
// rounds.
func benchDict(w *dictWorkload, o options) (result, error) {
	var s samples
	var res result
	for r := 0; r < rounds(o.seconds, w.roundSeconds); r++ {
		rd, err := serveRound(w, roundSeed(o.seed, r), nil, o.plantWrong && r == 0)
		if err != nil {
			return result{}, err
		}
		res.Attempted += rd.checks
		res.Failed += rd.failed
		ops := float64(rd.ops)
		s.add(rd.setupNS, rd.wallNS, ops, float64(rd.cost)/ops, float64(rd.alloc)/ops, &rd.lat)
	}
	s.report(&res)
	return res, nil
}
