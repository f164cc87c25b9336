package main

import (
	"math"

	"repro/internal/aem"
	"repro/internal/dict"
	"repro/internal/workload"
)

// workloadNames lists the workloads in the order `--workload all` runs
// them.
var workloadNames = []string{"drift", "zipf-read", "registry"}

// dictWorkload is a closed-loop service workload: one client issues
// every op and blocks on it, as dictsrv callers do. A second client on a
// 2-core box mostly measures scheduler contention, not the service.
type dictWorkload struct {
	name       string
	shards     int
	machine    aem.Config
	keyspace   int64
	deamortize bool
	preload    int64 // keys [0, preload) Put sequentially, then Flush, before timing
	ops        int   // ops per measured round
	gen        func(seed uint64, n int, keyspace int64) []dict.Op

	roundSeconds float64 // a round's op time on the 2-core reference box
}

// roundSeed derives round r's seed from the run's seed; round 0 uses the
// run's seed itself. Every round draws a fresh stream: one drift stream
// moves its hot window only 8 times and one zipf-read permutation fixes
// which keys are hot, too few placements for one stream to stand for the
// workload. Round r > 0 takes the r-th output of a generator seeded with
// the run's seed. Adding r times the generator's increment to the seed
// would not do: the generator steps its state by that increment, so
// round r's stream would be round 0's shifted by r draws, and the rounds
// of a run would share their hot keys.
func roundSeed(seed uint64, r int) uint64 {
	g := workload.NewRNG(seed)
	for ; r > 0; r-- {
		seed = g.Uint64()
	}
	return seed
}

// rounds returns how many rounds a run of the given measured seconds
// makes: the count that measures about that long on the reference box,
// and at least minRounds. A count rather than a deadline keeps every run
// of one seed the same op sequence, so figures such as q_per_op repeat
// exactly, and gives a faster program the same work as a slower one.
func rounds(seconds, roundSeconds float64) int {
	return max(minRounds, int(math.Round(seconds/roundSeconds)))
}

// machineShape is the stallgate machine: root buffers hold ωM = 16,384
// items per shard, so 2×ωM = 32,768 items across the two shards.
var machineShape = aem.Config{M: 1024, B: 32, Omega: 16}

var dictWorkloads = []*dictWorkload{
	{
		// The deamortized commit path does most of its work here: an
		// 8,192-key migrating hot window fits inside the root buffers, so
		// every batch pays Apply, one FlushStep, a snapshot capture,
		// publish and wake, and scans of 1,024 keys take about half the
		// wall time.
		name: "drift", shards: 2, machine: machineShape, keyspace: 65536,
		deamortize: true, ops: 120_000, roundSeconds: 0.65,
		gen: func(seed uint64, n int, keyspace int64) []dict.Op {
			return workload.DictStreams(seed, workload.DriftOps, 1, n, keyspace)[0]
		},
	},
	{
		// Snapshot Get descent dominates: the preloaded tree is 8× the
		// root buffers, writes are rare, and the amortized cascade (which
		// drift bypasses) runs on the commit path, once per shard and
		// round.
		name: "zipf-read", shards: 2, machine: machineShape, keyspace: 262_144,
		preload: 262_144, ops: 700_000, roundSeconds: 5.3,
		gen: zipfReadOps,
	},
}

// dictWorkloadByName returns the service workload called name, or nil.
func dictWorkloadByName(name string) *dictWorkload {
	for _, w := range dictWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// zipfReadOps draws keys from Zipf(1.1): 90% Get, 4% Scan of 128 keys,
// 6% Put. Hot ranks alternate between the two halves of the keyspace,
// which are the two shards, each rank at a seeded random key of its
// half, so in a 700,000-op round the shards take about 22,900 and 19,100
// Puts and each root buffer (16,384 items) cascades once. Over a
// permutation of the whole keyspace, which shard drew the few hottest
// keys set each shard's share (13k to 23k of 36k Puts in 600,000-op
// rounds), and so whether its root filled in the round: get_p99_us then
// varied 0.21 of its median from round to round, against 0.08 with the
// ranks alternating.
func zipfReadOps(seed uint64, n int, keyspace int64) []dict.Op {
	r := workload.NewRNG(seed)
	half := int(keyspace / 2)
	perm := [2][]int{r.Perm(half), r.Perm(half)}
	z := newZipf(int(keyspace), 1.1)
	ops := make([]dict.Op, n)
	for i := range ops {
		rank := z.sample(r)
		k := int64(rank%2*half + perm[rank%2][rank/2])
		switch c := r.Intn(100); {
		case c < 90:
			ops[i] = dict.Op{Kind: dict.Lookup, Key: k}
		case c < 94:
			ops[i] = dict.Op{Kind: dict.RangeScan, Key: k, Hi: k + 128}
		default:
			ops[i] = dict.Op{Kind: dict.Insert, Key: k, Value: int64(r.Intn(1 << 20))}
		}
	}
	return ops
}

// preloadOps returns the sequential Puts that fill keys [0, n) before a
// round is timed.
func preloadOps(seed uint64, n int64) []dict.Op {
	r := workload.NewRNG(seed ^ 0x5eed)
	ops := make([]dict.Op, n)
	for k := range ops {
		ops[k] = dict.Op{Kind: dict.Insert, Key: int64(k), Value: int64(r.Intn(1 << 20))}
	}
	return ops
}

// zipf samples ranks {0, …, n−1} with probability ∝ 1/(r+1)^s by
// inverting the cumulative distribution.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &zipf{cum: cum}
}

func (z *zipf) sample(r *workload.RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// model is the sequential reference the service's answers are checked
// against: with one client every read observes every earlier write.
type model struct{ vals []int64 } // -1 marks an absent key

func newModel(keyspace int64) *model {
	m := &model{vals: make([]int64, keyspace)}
	for i := range m.vals {
		m.vals[i] = -1
	}
	return m
}

func (m *model) apply(op dict.Op) {
	switch op.Kind {
	case dict.Insert:
		m.vals[op.Key] = op.Value
	case dict.Delete:
		m.vals[op.Key] = -1
	}
}

func (m *model) get(key int64) (int64, bool) {
	if key < 0 || key >= int64(len(m.vals)) {
		return 0, false
	}
	v := m.vals[key]
	return v, v >= 0
}

// scanMatches reports whether hits are exactly the live pairs in [lo, hi)
// in ascending key order.
func (m *model) scanMatches(lo, hi int64, hits []dict.Found) bool {
	if lo < 0 {
		lo = 0
	}
	if hi > int64(len(m.vals)) {
		hi = int64(len(m.vals))
	}
	i := 0
	for k := lo; k < hi; k++ {
		v := m.vals[k]
		if v < 0 {
			continue
		}
		if i >= len(hits) || hits[i].Key != k || hits[i].Value != v {
			return false
		}
		i++
	}
	return i == len(hits)
}

// router reproduces dictsrv's keyspace partition (contiguous equal
// ranges, out-of-range keys clamped to the edge shards), so the replay
// sends each op and each scan segment to the shard the service used.
type router struct {
	lo, hi int64
	shards int
}

func (r router) span() int64 { return (r.hi - r.lo + int64(r.shards) - 1) / int64(r.shards) }

func (r router) shardFor(key int64) int {
	if key < r.lo {
		return 0
	}
	if key >= r.hi {
		return r.shards - 1
	}
	return min(int((key-r.lo)/r.span()), r.shards-1)
}

// segments splits the scan [lo, hi) into per-shard intervals, exactly
// as dictsrv.Service.Scan does.
func (r router) segments(lo, hi int64, f func(shard int, lo, hi int64)) {
	if hi <= lo {
		return
	}
	for i := r.shardFor(lo); i <= r.shardFor(hi-1); i++ {
		shLo := r.lo + int64(i)*r.span()
		shHi := shLo + r.span()
		if shHi > r.hi || i == r.shards-1 {
			shHi = r.hi
		}
		shLo, shHi = max(shLo, lo), min(shHi, hi)
		if i == 0 && lo < r.lo {
			shLo = lo
		}
		if i == r.shards-1 && hi > r.hi {
			shHi = hi
		}
		f(i, shLo, shHi)
	}
}
