package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/aem"
	"repro/internal/dict"
	"repro/internal/harness"
	"repro/internal/workload"
)

// The registry workload runs the golden `aem bench` registry at par 1
// on the slice engine — storage, Machine accounting, vectors, sorting,
// pq, spmxv, permuting and the amortized buffer tree, with no service,
// snapshots or concurrency — and compares its output byte for byte with
// the committed golden. Its put/get/scan figures and q_per_op come from
// a probe: a seeded Zipf stream applied in Apply batches to a BufferTree
// driven directly, as the registry's dict experiments drive it.

// The probe stream is probeCycles cycles of probeBatch updates followed
// by probeQueries queries over probeKeyspace keys (the dict experiments'
// size). Its 26,880 updates cross the 16,384-item root buffer once, so
// every round pays one amortized cascade; fixed-size update batches keep
// that cascade's per-op share comparable across seeds. (The dict
// experiments' workload.DictOps bursts of 8 to 63 updates spread the
// probe's put_p999_us across five seeds by 0.44 of its median.)
const (
	probeCycles   = 840
	probeBatch    = 32
	probeQueries  = 16
	probeKeyspace = 65536
)

// probeStream generates the probe: Zipf(1.1) keys over a seeded
// permutation, 22% of updates deletes, 10% of queries scans of 1,024
// keys (enough scans per round for a p99 with ten samples beyond it).
func probeStream(seed uint64) []dict.Op {
	r := workload.NewRNG(seed)
	perm := r.Perm(probeKeyspace)
	z := newZipf(probeKeyspace, 1.1)
	key := func() int64 { return int64(perm[z.sample(r)]) }
	ops := make([]dict.Op, 0, probeCycles*(probeBatch+probeQueries))
	for c := 0; c < probeCycles; c++ {
		for i := 0; i < probeBatch; i++ {
			if r.Intn(100) < 22 {
				ops = append(ops, dict.Op{Kind: dict.Delete, Key: key()})
			} else {
				ops = append(ops, dict.Op{Kind: dict.Insert, Key: key(), Value: int64(r.Intn(1 << 20))})
			}
		}
		for i := 0; i < probeQueries; i++ {
			if k := key(); r.Intn(100) < 10 {
				ops = append(ops, dict.Op{Kind: dict.RangeScan, Key: k, Hi: k + 1024})
			} else {
				ops = append(ops, dict.Op{Kind: dict.Lookup, Key: k})
			}
		}
	}
	return ops
}

// registryFamilies groups experiment IDs for the per-family wall times.
var registryFamilies = map[string]string{
	"EXP-M1": "sorting", "EXP-S1": "sorting", "EXP-S2": "sorting", "EXP-B1": "sorting", "EXP-A1": "sorting",
	"EXP-P1": "lowerbound", "EXP-P2": "lowerbound", "EXP-R1": "lowerbound", "EXP-R2": "lowerbound",
	"EXP-F1": "lowerbound", "EXP-F2": "lowerbound",
	"EXP-X1": "spmxv", "EXP-X2": "spmxv",
	"EXP-D1": "dict", "EXP-D2": "dict",
	"EXP-Q1": "pq", "EXP-Q2": "pq",
}

// registryRound is one pass: set-up (golden, probe stream, grid size),
// the timed registry run, the golden check and the probe.
type registryRound struct {
	genNS, setupNS int64
	wallNS         int64
	points         int
	alloc          uint64
	tables         int
	mismatched     int
	family         map[string]int64 // summed point wall time (traced runs)
	probe          *probeRun
}

// runRegistry executes one round with the probe stream of probeSeed.
// When tr is non-nil the registry runs with per-point timing and one span
// per table, and the probe runs on timing storage.
func runRegistry(o options, probeSeed uint64, tr *tracer) (*registryRound, error) {
	rd := &registryRound{}
	t0 := time.Now()
	golden, err := os.ReadFile(o.golden)
	if err != nil {
		return nil, fmt.Errorf("registry golden: %w", err)
	}
	g := time.Now()
	ops := probeStream(probeSeed)
	rd.genNS = time.Since(g).Nanoseconds()
	rd.points = harness.NewPointRunner(harness.All()).Total()
	rd.setupNS = time.Since(t0).Nanoseconds()

	var tables []*harness.Table
	root := tr.begin(spanRegistry, -1, -1)
	last := tr.begin(spanTable, root, -1)
	a0 := totalAlloc()
	start := time.Now()
	if tr == nil {
		tables = harness.RunAll(1)
	} else {
		pool := &harness.LocalPool{Par: 1, Timing: true}
		if err := pool.Execute(harness.All(), func(t *harness.Table) {
			tr.label(last, t.ID)
			tr.end(last)
			last = tr.begin(spanTable, root, -1)
			tables = append(tables, t)
		}); err != nil {
			return nil, err
		}
	}
	rd.wallNS = time.Since(start).Nanoseconds()
	rd.alloc = totalAlloc() - a0
	tr.label(last, "end")
	tr.end(last)
	tr.end(root)

	rd.family = make(map[string]int64)
	off := 0
	var buf bytes.Buffer
	for _, t := range tables {
		for _, ns := range t.WallNS {
			rd.family[registryFamilies[t.ID]] += ns
		}
		t.WallNS = nil // timing columns are not part of the golden
		buf.Reset()
		t.Render(&buf)
		end := off + buf.Len()
		if end > len(golden) || !bytes.Equal(golden[off:end], buf.Bytes()) {
			rd.mismatched++
			fmt.Fprintf(os.Stderr, "perfbench: registry: %s differs from %s\n", t.ID, o.golden)
		}
		off = end
	}
	rd.tables = len(tables)
	if off != len(golden) {
		rd.mismatched++
		fmt.Fprintf(os.Stderr, "perfbench: registry: output is %d bytes, %s has %d\n", off, o.golden, len(golden))
	}
	rd.probe = runProbe(ops, tr, o.plantWrong)
	return rd, nil
}

// probeRun is what the direct BufferTree probe measured.
type probeRun struct {
	lat            [3][]float64 // ns per op
	checks, failed int64
	cost           int64
	ops            int64
	io             ioAgg
	nodeFlushes    int64
	height         int
	memPeak        int
	phase          map[string]aem.Stats
}

// runProbe drives a fresh amortized BufferTree directly, the way the
// registry's dict experiments do: each run of consecutive updates is one
// Apply, each run of consecutive queries one Apply of its lookups plus
// one Apply per scan (queries commute). An op's latency is its Apply's
// time shared over the ops in it. Every answer is checked against the
// sequential model. With tr non-nil the machine's storage is timed and
// every Apply is a span.
func runProbe(ops []dict.Op, tr *tracer, plantWrong bool) *probeRun {
	var ma *aem.Machine
	if tr == nil {
		ma = aem.New(machineShape)
	} else {
		ma = aem.NewWithStorage(machineShape, &timedStorage{Storage: aem.NewSliceStorage(), tr: tr})
	}
	defer ma.Close()
	tree := dict.NewBufferTree(ma)
	m := newModel(probeKeyspace)
	pr := &probeRun{ops: int64(len(ops)), phase: make(map[string]aem.Stats)}
	check := func(ok bool, op dict.Op) {
		pr.checks++
		if !ok {
			if pr.failed < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: registry probe: wrong answer to %v %d\n", op.Kind, op.Key)
			}
			pr.failed++
		}
	}
	io0 := ioAgg{}
	if tr != nil {
		io0 = tr.io
	}
	// apply times one Apply call and records its per-op share n times.
	apply := func(batch []dict.Op, class, name, req int) []dict.Result {
		sp := tr.begin(name, -1, req)
		t := time.Now()
		res := tree.Apply(batch)
		share := float64(time.Since(t).Nanoseconds()) / float64(len(batch))
		tr.end(sp)
		for range batch {
			pr.lat[class] = append(pr.lat[class], share)
		}
		return res
	}
	var lookups []dict.Op
	for i := 0; i < len(ops); {
		j := i
		if ops[i].Kind == dict.Insert || ops[i].Kind == dict.Delete {
			for j < len(ops) && (ops[j].Kind == dict.Insert || ops[j].Kind == dict.Delete) {
				j++
			}
			apply(ops[i:j], latPut, spanApply, i)
			for _, op := range ops[i:j] {
				m.apply(op)
			}
			i = j
			continue
		}
		lookups = lookups[:0]
		for ; j < len(ops) && (ops[j].Kind == dict.Lookup || ops[j].Kind == dict.RangeScan); j++ {
			if op := ops[j]; op.Kind == dict.Lookup {
				lookups = append(lookups, op)
			} else {
				res := apply(ops[j:j+1], latScan, spanQuery, j)
				check(m.scanMatches(op.Key, op.Hi, res[0].Hits), op)
			}
		}
		if len(lookups) > 0 {
			for k, got := range apply(lookups, latGet, spanQuery, i) {
				if plantWrong {
					got.Value, got.OK, plantWrong = got.Value+1, true, false
				}
				want, ok := m.get(lookups[k].Key)
				check(got.OK == ok && (!ok || got.Value == want), lookups[k])
			}
		}
		i = j
	}
	pr.cost = ma.Cost()
	if tr != nil {
		pr.io = tr.io.sub(io0)
	}
	pr.nodeFlushes = tree.NodeFlushes()
	pr.height = tree.Height()
	pr.memPeak = ma.MemPeak()
	for _, p := range replayedPhases {
		pr.phase[p] = ma.Phases().Phase(p)
	}
	return pr
}

// registryRoundSeconds is a registry run's time on the reference box.
const registryRoundSeconds = 1.8

// benchRegistry measures the registry untraced, over rounds(--seconds)
// rounds. Throughput and allocation are per grid point; latencies and Q
// per probe op.
func benchRegistry(o options) (result, error) {
	var s samples
	var res result
	for r := 0; r < rounds(o.seconds, registryRoundSeconds); r++ {
		rd, err := runRegistry(o, roundSeed(o.seed, r), nil)
		if err != nil {
			return result{}, err
		}
		o.plantWrong = false
		res.Attempted += int64(rd.tables) + rd.probe.checks
		res.Failed += int64(rd.mismatched) + rd.probe.failed
		points := float64(rd.points)
		s.add(rd.setupNS, rd.wallNS, points, float64(rd.probe.cost)/float64(rd.probe.ops), float64(rd.alloc)/points, &rd.probe.lat)
	}
	s.report(&res)
	return res, nil
}
