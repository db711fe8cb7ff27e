package main

import (
	"encoding/json"
	"math"
	"os"
	rtmetrics "runtime/metrics"
	"time"

	"zsim/internal/memsys"
	"zsim/internal/metrics"
)

// Protocol operations the Mem decorator times.
const (
	opRead = iota
	opWrite
	opRelease
	opAcquire
	numOps
)

func opName(op int) string {
	return [numOps]string{"read", "write", "release", "acquire"}[op]
}

// opStat aggregates one operation's calls in one cell. The simulation
// kernel runs one processor goroutine at a time and hands off through
// channels, so plain fields suffice.
type opStat struct {
	N  int64 `json:"count"`
	Ns int64 `json:"total_ns"`
}

// timedMem times every call into a machine's memory system. Each call costs
// two clock reads, which is why end-to-end metrics come from untraced
// passes only.
type timedMem struct {
	inner memsys.MemSystem
	ops   [numOps]opStat
}

// tokenMem is timedMem for a memory system that also implements
// memsys.TokenSystem. The machine type-asserts Mem for it, so the decorator
// must offer the method exactly when the wrapped system does.
type tokenMem struct {
	*timedMem
	ts memsys.TokenSystem
}

// wrapMem returns the decorated memory system to install as Machine.Mem and
// the decorator that holds its timings.
func wrapMem(m memsys.MemSystem) (memsys.MemSystem, *timedMem) {
	t := &timedMem{inner: m}
	if ts, ok := m.(memsys.TokenSystem); ok {
		return tokenMem{t, ts}, t
	}
	return t, t
}

func (t *timedMem) add(op int, start time.Time) {
	t.ops[op].N++
	t.ops[op].Ns += int64(time.Since(start))
}

func (t *timedMem) Name() memsys.Kind { return t.inner.Name() }

func (t *timedMem) Read(p int, addr memsys.Addr, size int, now memsys.Time) memsys.Time {
	s := time.Now()
	stall := t.inner.Read(p, addr, size, now)
	t.add(opRead, s)
	return stall
}

func (t *timedMem) Write(p int, addr memsys.Addr, size int, now memsys.Time) memsys.Time {
	s := time.Now()
	stall := t.inner.Write(p, addr, size, now)
	t.add(opWrite, s)
	return stall
}

func (t *timedMem) Release(p int, now memsys.Time) memsys.Time {
	s := time.Now()
	stall := t.inner.Release(p, now)
	t.add(opRelease, s)
	return stall
}

func (t *timedMem) Acquire(p int, now memsys.Time) memsys.Time {
	s := time.Now()
	stall := t.inner.Acquire(p, now)
	t.add(opAcquire, s)
	return stall
}

func (t *timedMem) Counters() *memsys.Counters { return t.inner.Counters() }

// PublishMetrics forwards to the wrapped system, which publishes its
// directory, cache and buffer totals at the end of a run.
func (t *timedMem) PublishMetrics(r *metrics.Registry) {
	if p, ok := t.inner.(metrics.Publisher); ok {
		p.PublishMetrics(r)
	}
}

func (t tokenMem) ReleaseWatermark(p int, now memsys.Time) memsys.Time {
	return t.ts.ReleaseWatermark(p, now)
}

// rtSample is a reading of the cumulative Go runtime metrics a traced pass
// reports as deltas.
type rtSample struct {
	allocBytes, gcCycles uint64
	gcCPUs               float64
	sched                *rtmetrics.Float64Histogram
}

// rtDelta is what the runtime did during one traced pass.
type rtDelta struct {
	allocBytes, gcCycles uint64
	gcCPUs               float64
	schedP50s, schedP99s float64
}

func sampleRuntime() rtSample {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	rtmetrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPUs:     s[2].Value.Float64(),
		sched:      s[3].Value.Float64Histogram(),
	}
}

func (s rtSample) since(before rtSample) rtDelta {
	counts := make([]uint64, len(s.sched.Counts))
	for i := range counts {
		counts[i] = s.sched.Counts[i] - before.sched.Counts[i]
	}
	return rtDelta{
		allocBytes: s.allocBytes - before.allocBytes,
		gcCycles:   s.gcCycles - before.gcCycles,
		gcCPUs:     s.gcCPUs - before.gcCPUs,
		schedP50s:  histQuantile(counts, s.sched.Buckets, 0.50),
		schedP99s:  histQuantile(counts, s.sched.Buckets, 0.99),
	}
}

// histQuantile returns the upper bound of the bucket holding quantile q of
// a runtime/metrics histogram (the lower bound for the open last bucket).
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var acc uint64
	for i, c := range counts {
		acc += c
		if acc >= target {
			if math.IsInf(buckets[i+1], 1) {
				return buckets[i]
			}
			return buckets[i+1]
		}
	}
	return buckets[len(buckets)-1]
}

// span is one timed call at a layer boundary. Times are nanoseconds since
// the run's first pass started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// cellOps is one cell's protocol calls in one traced pass, aggregated per
// operation: there are millions of them, too many to keep one span each.
type cellOps struct {
	Pass int               `json:"pass"`
	Cell string            `json:"cell"`
	Ops  map[string]opStat `json:"ops"`
}

// writeSpans writes the traced passes' spans and protocol aggregates as
// JSON. The spans are derived after the fact from the stamps every cell
// records, so recording costs nothing while a pass runs.
func writeSpans(path string, r *result) error {
	var out struct {
		Spans []span    `json:"spans"`
		Proto []cellOps `json:"proto"`
	}
	t0 := r.passes[0].start
	ns := func(t time.Time) int64 { return int64(t.Sub(t0)) }
	add := func(parent int, name, cellID string, a, b time.Time) int {
		id := len(out.Spans) + 1
		out.Spans = append(out.Spans, span{ID: id, Parent: parent, Name: name, Cell: cellID, Start: ns(a), End: ns(b)})
		return id
	}
	for pi, p := range r.traced() {
		pid := add(0, "pass", "", p.start, p.end)
		for i := range p.cells {
			c := &p.cells[i]
			id := r.w.cells[i].id()
			cid := add(pid, "cell", id, c.start, c.done)
			add(cid, "machine.New", id, c.start, c.built)
			add(cid, "App.Setup", id, c.built, c.ready)
			add(cid, "Machine.Run", id, c.ready, c.ran)
			add(cid, "App.Verify", id, c.ran, c.done)
			ops := map[string]opStat{}
			for op := 0; op < numOps; op++ {
				ops[opName(op)] = c.ops[op]
			}
			out.Proto = append(out.Proto, cellOps{Pass: pi, Cell: id, Ops: ops})
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
