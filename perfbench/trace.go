package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/aem"
)

// Span names, one per layer boundary the benchmark calls across.
const (
	spanServeRound = iota // a traced service round
	spanSvcPut            // dictsrv.Service.Put / Delete
	spanSvcGet            // dictsrv.Service.Get
	spanSvcScan           // dictsrv.Service.Scan
	spanSvcFlush          // dictsrv.Service.Flush
	spanReplay            // the replay of a round's committed ops
	spanPreload           // replayed preload (children are not spanned)
	spanApply             // dict.BufferTree.Apply
	spanFlushStep         // dict.BufferTree.FlushStep
	spanSnapshot          // dict.BufferTree.Snapshot
	spanTreeFlush         // dict.BufferTree.Flush
	spanSnapGet           // dict.TreeSnapshot.Get
	spanSnapRange         // dict.TreeSnapshot.Range
	spanQuery             // dict.BufferTree.Apply of a lookup or scan
	spanRegistry          // harness run of the registry
	spanTable             // one registry table, ended at its emission
)

var spanNames = [...]string{
	"serve.round", "dictsrv.Put", "dictsrv.Get", "dictsrv.Scan", "dictsrv.Flush",
	"replay", "replay.preload", "dict.Apply", "dict.FlushStep", "dict.Snapshot",
	"dict.Flush", "dict.Get", "dict.Range", "dict.Query", "registry.run", "registry.table",
}

// ioAgg counts storage calls and their summed time. Storage calls are
// aggregated per enclosing span, not spanned one by one.
type ioAgg struct {
	Reads   int64 `json:"reads,omitempty"`
	ReadNS  int64 `json:"read_ns,omitempty"`
	Writes  int64 `json:"writes,omitempty"`
	WriteNS int64 `json:"write_ns,omitempty"`
	Allocs  int64 `json:"allocs,omitempty"`
	AllocNS int64 `json:"alloc_ns,omitempty"`
}

func (a ioAgg) sub(b ioAgg) ioAgg {
	return ioAgg{a.Reads - b.Reads, a.ReadNS - b.ReadNS, a.Writes - b.Writes,
		a.WriteNS - b.WriteNS, a.Allocs - b.Allocs, a.AllocNS - b.AllocNS}
}

// span is one recorded interval. Spans of one op share req (the op's
// index in its stream; -1 for none).
type span struct {
	name       int
	parent     int
	req        int
	start, end int64 // ns since the tracer's epoch
	label      string
	io         ioAgg
}

// spanLimit caps the spans a run keeps for its span file. Spans past it
// are still timed (the metrics cover every op) but not stored.
const spanLimit = 200_000

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch   time.Time
	spans   []span
	over    []span // open spans past spanLimit, by nesting depth
	dropped int
	io      ioAgg // running storage totals, fed by timedStorage
	open    []ioAgg

	// timerCost is the wall time one timed storage call adds (a
	// time.Now/time.Since pair); timerFloor is what such a pair reads
	// around an empty region. Both are measured at start, so span work
	// and per-call storage times can be reported net of the tracing.
	timerCost, timerFloor float64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	const n = 200_000
	var sum time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		c := time.Now()
		sum += time.Since(c)
	}
	t.timerCost = float64(time.Since(start).Nanoseconds()) / n
	t.timerFloor = float64(sum.Nanoseconds()) / n
	return t
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, parent, req int) int {
	if t == nil {
		return -1
	}
	sp := span{name: name, parent: parent, req: req, start: time.Since(t.epoch).Nanoseconds()}
	t.open = append(t.open, t.io)
	if len(t.spans) < spanLimit {
		t.spans = append(t.spans, sp)
		return len(t.spans) - 1
	}
	t.dropped++
	depth := len(t.open) - 1
	for len(t.over) <= depth {
		t.over = append(t.over, span{})
	}
	t.over[depth] = sp
	return -2 - depth
}

func (t *tracer) span(id int) *span {
	if id >= 0 {
		return &t.spans[id]
	}
	return &t.over[-2-id]
}

// end closes span id, attributing the storage calls made since it
// opened. Spans close in LIFO order.
func (t *tracer) end(id int) {
	if t == nil || id == -1 {
		return
	}
	sp := t.span(id)
	sp.end = time.Since(t.epoch).Nanoseconds()
	sp.io = t.io.sub(t.open[len(t.open)-1])
	t.open = t.open[:len(t.open)-1]
}

// label names span id's subject, such as a table ID.
func (t *tracer) label(id int, s string) {
	if t != nil && id != -1 {
		t.span(id).label = s
	}
}

// work returns span id's duration net of the timers its storage calls
// added (0 on a nil tracer).
func (t *tracer) work(id int) int64 {
	if t == nil || id == -1 {
		return 0
	}
	sp := t.span(id)
	calls := sp.io.Reads + sp.io.Writes + sp.io.Allocs
	return max(0, sp.end-sp.start-int64(float64(calls)*t.timerCost))
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Label  string `json:"label,omitempty"`
		Parent int    `json:"parent"`
		Req    int    `json:"req"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		ioAgg
	}
	for i, sp := range t.spans {
		if err := enc.Encode(line{i, spanNames[sp.name], sp.label, sp.parent, sp.req, sp.start, sp.end, sp.io}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// spanFile names a workload's span file; each traced run replaces it.
func spanFile(o options, workload string) string {
	return filepath.Join(o.outDir, "spans", workload+".jsonl")
}

// timedStorage wraps a storage engine, timing every call into the
// tracer's running totals. It is single-threaded: the replay has no
// concurrent readers.
type timedStorage struct {
	aem.Storage
	tr *tracer
}

func (s *timedStorage) Alloc(count int) aem.Addr {
	t := time.Now()
	a := s.Storage.Alloc(count)
	s.tr.io.AllocNS += time.Since(t).Nanoseconds()
	s.tr.io.Allocs++
	return a
}

func (s *timedStorage) ReadInto(a aem.Addr, dst []aem.Item) []aem.Item {
	t := time.Now()
	out := s.Storage.ReadInto(a, dst)
	s.tr.io.ReadNS += time.Since(t).Nanoseconds()
	s.tr.io.Reads++
	return out
}

func (s *timedStorage) Write(a aem.Addr, items []aem.Item) {
	t := time.Now()
	s.Storage.Write(a, items)
	s.tr.io.WriteNS += time.Since(t).Nanoseconds()
	s.tr.io.Writes++
}

// ReadBlock lets snapshot queries read through the same timing, like
// dictsrv's locked shard reader.
func (s *timedStorage) ReadBlock(a aem.Addr, dst []aem.Item) []aem.Item {
	return s.ReadInto(a, dst)
}
