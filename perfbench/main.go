// Command perfbench is the repository's benchmark. It drives the two
// products — the dictionary service (internal/dictsrv over the buffer
// tree of internal/dict) and the `aem bench` experiment registry
// (internal/harness) — through seeded workloads from one process and one
// client goroutine, checks every answer, and prints one JSON result line.
// From the repository root:
//
//	bash perfbench/run.sh --workload drift --seed 1 --seconds 30 --trace 0
//
// Workloads are drift, zipf-read and registry (see workloads.go and
// registry.go), or all of them in turn. --trace 0 reports the end-to-end
// metrics; --trace 1 makes a separate traced run, reports the per-layer
// metrics (layers.go) and writes its spans as JSON lines under --out-dir.
// The last line of standard output is the result object; a wrong answer,
// a golden mismatch or a failed replay agreement check makes the exit
// code non-zero. The line before it records the run's provenance and
// error_rate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	golden   string // registry golden, read only; tests point it elsewhere
	outDir   string // where traced runs write their spans

	// plantWrong corrupts one observed answer before it is checked, so
	// tests can prove a wrong answer reaches error_rate and the exit code.
	plantWrong bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "drift | zipf-read | registry | all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds per run on the 2-core reference box; sets the round count")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.outDir, "out-dir", ".bench_build", "directory for span files")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		os.Exit(2)
	}
	o.trace = trace == 1
	o.golden = "testdata/aembench.golden"
	os.Exit(run(o, os.Stdout))
}

// run executes the selected workloads, prints their records and the
// result line to stdout, and returns the exit code.
func run(o options, stdout io.Writer) int {
	names := workloadNames
	if o.workload != "all" {
		if !slices.Contains(workloadNames, o.workload) {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %v or all)\n", o.workload, workloadNames)
			return 2
		}
		names = []string{o.workload}
	}
	total := result{Correct: true}
	for _, name := range names {
		prev := runtime.GOMAXPROCS(gomaxprocs(name))
		res, err := runWorkload(name, o)
		rec := provenance(name, o)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		rec["error_rate"] = errorRate(res)
		printJSON(stdout, rec)
		if len(names) == 1 {
			total = res
			break
		}
		printJSON(stdout, map[string]interface{}{"type": "workload", "workload": name, "result": res})
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.set(name+"."+k, m.Value, m.Unit)
		}
	}
	printJSON(stdout, total)
	if !total.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d checks failed\n", total.Failed, total.Attempted)
		return 1
	}
	return 0
}

// runWorkload dispatches one workload in the requested mode.
func runWorkload(name string, o options) (result, error) {
	if name == "registry" {
		if o.trace {
			return traceRegistry(o)
		}
		return benchRegistry(o)
	}
	w := dictWorkloadByName(name)
	if o.trace {
		return traceDict(w, o)
	}
	return benchDict(w, o)
}

// gomaxprocs returns the GOMAXPROCS a workload runs with (0 keeps the
// current value). The service workloads run on one P: the client and
// committer goroutines then hand off on one thread, so latencies measure
// the code's path rather than the host's cross-core wake-up time, which
// tracks the host's load (on a 2-core box, two Ps made repeated drift
// runs of one seed differ by 14% in wall_s and 24% in get_p99_us, one P
// by 5% and 17%). The registry is single-threaded and keeps every P, so
// the GC marks beside it and its peak RSS stays steady.
func gomaxprocs(workload string) int {
	if workload == "registry" {
		return 0
	}
	return 1
}

func errorRate(r result) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// provenance describes where and how a result was measured; it is
// printed beside every result.
func provenance(name string, o options) map[string]interface{} {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]interface{}{
		"type":       "run",
		"workload":   name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_rev":    rev,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func printJSON(w io.Writer, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // metrics are finite numbers; a failure is a bug here
	}
	fmt.Fprintln(w, string(b))
}

// rssPeakMB returns the process's peak resident set size in MiB. The
// peak never falls, so under --workload all a later workload's figure
// includes the peaks of those before it; it is that workload's own only
// in a single-workload run.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// totalAlloc returns the cumulative heap bytes allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, sorting xs in place. Zero for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(p/100*float64(len(xs))+0.5) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median returns the median of xs (mean of the middle pair for an even
// count), without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio divides, returning 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
