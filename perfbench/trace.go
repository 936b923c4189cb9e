package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/grid"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// The traced run: a separate run per workload that alternates untraced
// rounds with the same rounds run with an obs.Collector threaded
// through Options.Trace and the failover collector. The benchmark's own
// spans wrap each public call it makes into a layer and share one run
// id; they stay in memory and are written as NDJSON at the end, which
// cmd/tracecheck validates.

// tracePairs is how many untraced/traced round pairs a traced run
// interleaves: the untraced rounds give the overhead baseline and the
// untraced per-operation figures, the traced rounds the counters.
const tracePairs = 5

// layerMetrics are the per-layer metrics every traced run reports, in
// BENCHMARK.json order. A layer the workload does not reach reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"grid.build_ms", "ms"},
	{"grid.probes", "count/round"},
	{"grid.ms_per_probe", "ms"},
	{"planner.fit_strategy_ms", "ms/round"},
	{"planner.leaf_fit_ms", "ms/round"},
	{"tier.characterize_ms", "ms/round"},
	{"sim.events", "count/round"},
	{"sim.ns_per_event", "ns"},
	{"netsim.pkts_forwarded", "count/round"},
	{"netsim.pkts_dropped", "count/round"},
	{"netsim.ns_per_pkt", "ns"},
	{"netsim.fluid_flows", "count/round"},
	{"netsim.fluid_bytes", "B/round"},
	{"netsim.fluid_share", "ratio"},
	{"transport.retransmits", "count/round"},
	{"transport.timeouts", "count/round"},
	{"transport.retx_ratio", "ratio"},
	{"coll.compile_us", "us"},
	{"coll.exec_ms.alltoall", "ms"},
	{"coll.exec_ms.allgather", "ms"},
	{"coll.exec_ms.broadcast", "ms"},
	{"coll.exec_ms.reduce", "ms"},
	{"coll.exec_ms.reduce-scatter", "ms"},
	{"coll.exec_ms.allreduce", "ms"},
	{"coll.delivered_blocks", "count/round"},
	{"cluster.build_us", "us"},
	{"model.predict_us", "us"},
	{"service.hit_ratio", "ratio"},
	{"service.warm_build_us", "us"},
	{"service.evict", "count/round"},
	{"service.len_max", "count"},
	{"store.load_ms", "ms"},
	{"store.save_ms", "ms"},
	{"store.bytes", "B"},
	{"store.hit", "count/round"},
	{"store.miss", "count/round"},
	{"obs.overhead_pct", "%"},
	{"gc.cycles", "count/round"},
	{"alloc_objects", "count/op"},
}

// layers is a traced run's per-layer metric set.
type layers map[string]metric

// newLayers returns every per-layer metric at zero.
func newLayers() layers {
	l := layers{}
	for _, m := range layerMetrics {
		l[m.name] = metric{0, m.unit}
	}
	return l
}

// set records a per-layer value; an unknown name is a benchmark bug.
func (l layers) set(name string, v float64) {
	m, ok := l[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	m.Value = v
	l[name] = m
}

// tracer records the benchmark's own spans into the run's collector.
// A nil collector records nothing, so untraced rounds share the code.
type tracer struct {
	c   *obs.Collector
	run string
}

// newTracer returns a tracer whose spans carry one run id.
func newTracer(c *obs.Collector, cfg config) *tracer {
	return &tracer{c: c, run: fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, time.Now().UnixNano())}
}

// span opens a benchmark span tagged with the run id.
func (t *tracer) span(name string, attrs ...obs.Attr) *obs.Span {
	if t == nil || t.c == nil {
		return nil
	}
	return t.c.Span(name, append([]obs.Attr{obs.Str("run", t.run)}, attrs...)...)
}

// snapshot is a collector's counter values at one instant.
type snapshot map[string]uint64

// snap reads every counter of c.
func snap(c *obs.Collector) snapshot {
	s := snapshot{}
	for _, cv := range c.Counters() {
		s[cv.Name] = cv.Value
	}
	return s
}

// spanTotalsMS sums the durations of every ended span called name, in
// milliseconds.
func spanTotalsMS(c *obs.Collector, name string) float64 {
	var ns int64
	for _, e := range c.Events() {
		if e.Type == "span.end" && e.Name == name {
			ns += e.DurNS
		}
	}
	return float64(ns) / 1e6
}

// setSimLayers fills the sim, netsim and transport metrics from the
// counters of k traced rounds; roundS is the untraced round time the
// per-event and per-packet costs divide.
func setSimLayers(l layers, ctr snapshot, k int, roundS float64) {
	per := func(name string) float64 { return float64(ctr[name]) / float64(k) }
	events, fwd := per(grid.CtrSimEvents), per(netsim.CtrForwarded)
	l.set("sim.events", events)
	l.set("netsim.pkts_forwarded", fwd)
	l.set("netsim.pkts_dropped", per(netsim.CtrDropped))
	l.set("netsim.fluid_flows", per(netsim.CtrFluidFlows))
	fluidB, wanB := per(netsim.CtrFluidBytes), per(netsim.CtrWANBytes)
	l.set("netsim.fluid_bytes", fluidB)
	if fluidB+wanB > 0 {
		l.set("netsim.fluid_share", fluidB/(fluidB+wanB))
	}
	retx := per(grid.CtrRetransmits)
	l.set("transport.retransmits", retx)
	l.set("transport.timeouts", per(grid.CtrTimeouts))
	if events > 0 {
		l.set("sim.ns_per_event", roundS*1e9/events)
	}
	if fwd > 0 {
		l.set("netsim.ns_per_pkt", roundS*1e9/fwd)
		l.set("transport.retx_ratio", retx/fwd)
	}
}

// setRuntimeLayers fills the Go runtime metrics and the tracing
// overhead from the paired untraced and traced rounds. The overhead is
// the median of the pairs' relative differences, so host drift across
// the run cancels within each pair.
func setRuntimeLayers(l layers, untraced, traced []round) {
	var gcs, mallocs, ops float64
	for _, r := range untraced {
		gcs += float64(r.gcs)
		mallocs += float64(r.mallocs)
		ops += float64(len(r.lat))
	}
	l.set("gc.cycles", gcs/float64(len(untraced)))
	if ops > 0 {
		l.set("alloc_objects", mallocs/ops)
	}
	diffs := make([]float64, len(traced))
	for i, t := range traced {
		u := untraced[i].wall
		diffs[i] = (t.wall - u) / u * 100
	}
	l.set("obs.overhead_pct", median(diffs))
}

// medianTime returns the median wall time of n calls of fn in the
// given unit. Each call is wrapped in a benchmark span.
func medianTime(tr *tracer, span string, n int, unit time.Duration, fn func() error) (float64, error) {
	ts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		sp := tr.span(span)
		t := time.Now()
		err := fn()
		ts = append(ts, float64(time.Since(t))/float64(unit))
		sp.End()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", span, err)
		}
	}
	return median(ts), nil
}

// checkTrace writes the collector's NDJSON into the work directory and
// validates it with cmd/tracecheck: schema, the presence of every named
// span, and the given counter assertions.
func checkTrace(cfg config, c *obs.Collector, spans, counters []string) error {
	if cfg.tracecheck == "" {
		return fmt.Errorf("traced run needs -tracecheck")
	}
	path := filepath.Join(cfg.workDir, "trace-"+cfg.workload+".ndjson")
	if err := writeNDJSON(path, c); err != nil {
		return err
	}
	var args []string
	for _, s := range spans {
		args = append(args, "-span", s)
	}
	for _, a := range counters {
		args = append(args, "-counter", a)
	}
	args = append(args, path)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, cfg.tracecheck, args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("tracecheck %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(string(out)))
	}
	fmt.Printf("tracecheck: %s", out)
	return nil
}

// writeNDJSON writes the collector's trace to path.
func writeNDJSON(path string, c *obs.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := c.WriteNDJSON(w); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
