package main

import (
	"fmt"
	"os"

	"repro/internal/aem"
)

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise reports 0
// (dictsrv and snapshot figures on registry, registry figures on the
// service workloads, FlushStep figures on zipf-read).
var perLayer = []struct{ name, unit string }{
	{"dictsrv.put_self_us", "us"}, {"dictsrv.get_self_us", "us"},
	{"dictsrv.stall_p999_us", "us"}, {"dictsrv.max_stall_us", "us"},
	{"dictsrv.debt_high_water", "count"}, {"dictsrv.flushes", "count"},
	{"dictsrv.snap_reads_per_op", "io/op"},
	{"dict.apply_p50_us", "us"}, {"dict.apply_p999_us", "us"},
	{"dict.node_flushes", "count"}, {"dict.height", "count"},
	{"dict.flushstep_p50_us", "us"}, {"dict.flushstep_p999_us", "us"}, {"dict.flushsteps", "count"},
	{"dict.snapshot_p50_us", "us"}, {"dict.snapshot_bytes", "B"},
	{"dict.get_p50_us", "us"}, {"dict.get_blocks", "io/op"},
	{"dict.range_p50_us", "us"}, {"dict.range_blocks", "io/op"}, {"dict.range_bytes", "B"},
	{"aem.read_ns", "ns"}, {"aem.write_ns", "ns"}, {"aem.alloc_ns", "ns"},
	{"aem.reads_per_op", "io/op"}, {"aem.writes_per_op", "io/op"}, {"aem.mem_peak", "items"},
	{"aem.dict-append.qr", "io/op"}, {"aem.dict-append.qw", "io/op"},
	{"aem.dict-flush.qr", "io/op"}, {"aem.dict-flush.qw", "io/op"},
	{"aem.dict-rebuild.qr", "io/op"}, {"aem.dict-rebuild.qw", "io/op"},
	{"registry.sorting_ms", "ms"}, {"registry.lowerbound_ms", "ms"}, {"registry.spmxv_ms", "ms"},
	{"registry.dict_ms", "ms"}, {"registry.pq_ms", "ms"},
	{"workload.gen_s", "s"}, {"trace.overhead_s", "s"},
	{"replay.io_diff", "ratio"}, {"replay.snap_diff", "ratio"},
}

// layerResult starts a traced result with every per-layer metric at 0.
func layerResult() result {
	res := result{Metrics: make(map[string]metric)}
	for _, m := range perLayer {
		res.set(m.name, 0, m.unit)
	}
	return res
}

// setLayer overwrites a per-layer metric, keeping its declared unit.
func (r *result) setLayer(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}

// setStorage reports the storage-engine figures and the tree's
// per-phase Qr/Qw over ops measured operations. Per-call times are net
// of what the tracer's timer reads around an empty region.
func (r *result) setStorage(tr *tracer, io ioAgg, ops int64, memPeak int, phase map[string]aem.Stats) {
	perCall := func(ns, calls int64) float64 {
		return max(0, ratio(float64(ns), float64(calls))-tr.timerFloor)
	}
	r.setLayer("aem.read_ns", perCall(io.ReadNS, io.Reads))
	r.setLayer("aem.write_ns", perCall(io.WriteNS, io.Writes))
	r.setLayer("aem.alloc_ns", perCall(io.AllocNS, io.Allocs))
	r.setLayer("aem.reads_per_op", ratio(float64(io.Reads), float64(ops)))
	r.setLayer("aem.writes_per_op", ratio(float64(io.Writes), float64(ops)))
	r.setLayer("aem.mem_peak", float64(memPeak))
	for _, p := range replayedPhases {
		r.setLayer("aem."+p+".qr", ratio(float64(phase[p].Reads), float64(ops)))
		r.setLayer("aem."+p+".qw", ratio(float64(phase[p].Writes), float64(ops)))
	}
}

// traceDict is the traced run of a service workload: an untraced round
// (the overhead baseline), a traced round with one span per op, and the
// replay of that round's committed ops through the layers below the
// service. Per-layer figures are published only when the replay agrees
// with the service's Stats.
func traceDict(w *dictWorkload, o options) (result, error) {
	base, err := serveRound(w, o.seed, nil, false)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	rd, err := serveRound(w, o.seed, tr, o.plantWrong)
	if err != nil {
		return result{}, err
	}
	rp := replay(w, rd, tr)
	ioDiff, snapDiff, agree := agreement(w, rd, rp)

	res := layerResult()
	res.Attempted = base.checks + rd.checks + 1
	res.Failed = base.failed + rd.failed
	if !agree {
		res.Failed++
		res.Metrics = map[string]metric{} // invalid figures are not published
		return res, nil
	}
	res.Correct = res.Failed == 0
	us := func(ns float64) float64 { return ns / 1e3 }
	ops := rd.ops
	st := rd.flushed // the workload's traffic, not the final check's Scan
	res.setLayer("dictsrv.put_self_us", us(mean(rd.lat[latPut])-mean(rp.writeWork)))
	res.setLayer("dictsrv.get_self_us", us(mean(rd.lat[latGet])-mean(rp.get)))
	stalls := st.Stalls // commit stalls of the measured ops alone
	for i := range stalls.Counts {
		stalls.Counts[i] -= rd.before.Stalls.Counts[i]
	}
	stalls.N -= rd.before.Stalls.N
	res.setLayer("dictsrv.stall_p999_us", us(float64(stalls.Quantile(0.999))))
	// Stats keeps these two as running maxima, preload included.
	res.setLayer("dictsrv.max_stall_us", us(float64(st.MaxStallNS)))
	res.setLayer("dictsrv.debt_high_water", float64(st.DebtHighWater))
	res.setLayer("dictsrv.flushes", float64(st.Flushes-rd.before.Flushes))
	res.setLayer("dictsrv.snap_reads_per_op", ratio(float64(st.SnapReads-rd.before.SnapReads), float64(ops)))

	res.setLayer("dict.apply_p50_us", us(percentile(rp.apply, 50)))
	res.setLayer("dict.apply_p999_us", us(percentile(rp.apply, 99.9)))
	res.setLayer("dict.node_flushes", float64(rp.nodeFlushes))
	res.setLayer("dict.height", float64(rp.height))
	res.setLayer("dict.flushstep_p50_us", us(percentile(rp.step, 50)))
	res.setLayer("dict.flushstep_p999_us", us(percentile(rp.step, 99.9)))
	res.setLayer("dict.flushsteps", float64(len(rp.step)))
	res.setLayer("dict.snapshot_p50_us", us(percentile(rp.snap, 50)))
	res.setLayer("dict.snapshot_bytes", median(rp.snapBytes))
	res.setLayer("dict.get_p50_us", us(percentile(rp.get, 50)))
	res.setLayer("dict.get_blocks", ratio(float64(rp.getBlocks), float64(len(rp.get))))
	res.setLayer("dict.range_p50_us", us(percentile(rp.rng, 50)))
	res.setLayer("dict.range_blocks", ratio(float64(rp.rangeBlocks), float64(rp.scans)))
	res.setLayer("dict.range_bytes", median(rp.rangeBytes))

	res.setStorage(tr, rp.io, ops, rp.memPeak, rp.phase)
	res.setLayer("workload.gen_s", float64(rd.genNS)/1e9)
	res.setLayer("trace.overhead_s", float64(rd.wallNS-base.wallNS)/1e9)
	res.setLayer("replay.io_diff", ioDiff)
	res.setLayer("replay.snap_diff", snapDiff)
	return res, writeSpans(tr, o, w.name)
}

// traceRegistry is the traced run of the registry: an untraced round
// (the overhead baseline) and a round with per-point timing, one span
// per table and the probe on timing storage.
func traceRegistry(o options) (result, error) {
	untraced := o
	untraced.plantWrong = false
	base, err := runRegistry(untraced, o.seed, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	rd, err := runRegistry(o, o.seed, tr)
	if err != nil {
		return result{}, err
	}
	res := layerResult()
	res.Attempted = int64(base.tables+rd.tables) + base.probe.checks + rd.probe.checks
	res.Failed = int64(base.mismatched+rd.mismatched) + base.probe.failed + rd.probe.failed
	res.Correct = res.Failed == 0
	for _, f := range []string{"sorting", "lowerbound", "spmxv", "dict", "pq"} {
		res.setLayer("registry."+f+"_ms", float64(rd.family[f])/1e6)
	}
	pr := rd.probe
	res.setLayer("dict.apply_p50_us", percentile(pr.lat[latPut], 50)/1e3)
	res.setLayer("dict.apply_p999_us", percentile(pr.lat[latPut], 99.9)/1e3)
	res.setLayer("dict.node_flushes", float64(pr.nodeFlushes))
	res.setLayer("dict.height", float64(pr.height))
	res.setStorage(tr, pr.io, pr.ops, pr.memPeak, pr.phase)
	res.setLayer("workload.gen_s", float64(rd.genNS)/1e9)
	res.setLayer("trace.overhead_s", float64(rd.wallNS-base.wallNS)/1e9)
	return res, writeSpans(tr, o, "registry")
}

func writeSpans(tr *tracer, o options, workload string) error {
	path := spanFile(o, workload)
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s (%d more timed but not kept)\n", len(tr.spans), path, tr.dropped)
	return nil
}
