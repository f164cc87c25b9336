package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const goldenPath = "../testdata/aembench.golden"

// shrink makes the service workloads tiny for the duration of a test.
func shrink(t *testing.T) {
	saved := make([]dictWorkload, len(dictWorkloads))
	for i, w := range dictWorkloads {
		saved[i] = *w
		w.ops = 3000
		if w.preload > 0 {
			w.preload = 8192
		}
	}
	t.Cleanup(func() {
		for i, w := range dictWorkloads {
			*w = saved[i]
		}
	})
}

// benchmarkSpec reads the metric names and units BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// runOnce runs one workload and returns the exit code and the decoded
// last line, checking that it has exactly the contract's keys.
func runOnce(t *testing.T, o options) (int, result) {
	t.Helper()
	var out bytes.Buffer
	code := run(o, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, last)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys = %v", got)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatal(err)
	}
	return code, res
}

func opts(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 7, trace: trace, golden: goldenPath, outDir: t.TempDir()}
}

// TestSmokeSchema runs every workload at a tiny size, untraced and
// traced, and holds the output to the metric names and units in
// BENCHMARK.json: every end-to-end metric non-zero, every per-layer
// metric present, the replay agreement check passed, spans written.
func TestSmokeSchema(t *testing.T) {
	shrink(t)
	endToEnd, perLayer := benchmarkSpec(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := opts(t, name, trace)
			code, res := runOnce(t, o)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, correct=%v, %d/%d failed", name, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for n, unit := range want {
				m, ok := res.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, n)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", name, trace, n, m.Unit, unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(o.outDir, "spans", name+".jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
		}
	}
}

// TestPlantedWrongAnswer corrupts one observed answer and requires the
// check to count it and the exit code to report it.
func TestPlantedWrongAnswer(t *testing.T) {
	shrink(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := opts(t, name, trace)
			o.plantWrong = true
			code, res := runOnce(t, o)
			if code == 0 || res.Correct || res.Failed != 1 {
				t.Errorf("%s trace=%v: planted wrong answer gave exit %d, correct=%v, failed=%d", name, trace, code, res.Correct, res.Failed)
			}
		}
	}
}

// TestGoldenMismatch feeds the registry a golden with one byte changed.
func TestGoldenMismatch(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	o := opts(t, "registry", true)
	o.golden = filepath.Join(t.TempDir(), "golden")
	if err := os.WriteFile(o.golden, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	code, res := runOnce(t, o)
	if code == 0 || res.Correct || res.Failed != 2 { // one table, in each of the two traced-run rounds
		t.Errorf("changed golden gave exit %d, correct=%v, failed=%d", code, res.Correct, res.Failed)
	}
}

// TestAllWorkloads runs every workload from one command and process.
func TestAllWorkloads(t *testing.T) {
	shrink(t)
	endToEnd, _ := benchmarkSpec(t)
	code, res := runOnce(t, opts(t, "all", false))
	if code != 0 || !res.Correct || len(res.Metrics) != len(workloadNames)*len(endToEnd) {
		t.Fatalf("exit %d, correct=%v, %d metrics", code, res.Correct, len(res.Metrics))
	}
	for _, name := range workloadNames {
		if _, ok := res.Metrics[name+".q_per_op"]; !ok {
			t.Errorf("no %s.q_per_op", name)
		}
	}
}
