package main

import (
	"fmt"
	"runtime"
	"time"
)

// Steadiness rules shared by every workload: a round is a fixed,
// seeded batch of operations lasting seconds; runtime.GC() runs before
// each round; the first round is a discarded warm-up; timed rounds run
// until both minRounds and the requested seconds are reached.

// round is the measurement of one round.
type round struct {
	wall    float64   // seconds
	lat     []float64 // seconds per operation
	alloc   uint64    // bytes allocated (MemStats.TotalAlloc delta)
	mallocs uint64    // heap objects allocated
	gcs     uint32    // completed GC cycles
}

// roundLimit stops timed rounds even short of minRounds, keeping a run
// well inside its time budget on a slow host.
const roundLimit = 110 * time.Second

// counts tallies attempted and failed operations across a run.
type counts struct{ attempted, failed int }

// op times one operation into lat and tallies it. An operation error
// fails the round.
func (c *counts) op(lat *[]float64, fn func() error) error {
	c.attempted++
	t := time.Now()
	err := fn()
	*lat = append(*lat, time.Since(t).Seconds())
	if err != nil {
		c.failed++
	}
	return err
}

// roundFunc is one round's work: body runs timed, recording each
// operation's latency; check, when non-nil, then verifies the round's
// outputs outside the timing.
type roundFunc struct {
	body  func(lat *[]float64) error
	check func() error
}

// measureRound runs one round after a forced GC.
func measureRound(f roundFunc) (round, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var r round
	t := time.Now()
	err := f.body(&r.lat)
	r.wall = time.Since(t).Seconds()
	runtime.ReadMemStats(&after)
	r.alloc = after.TotalAlloc - before.TotalAlloc
	r.mallocs = after.Mallocs - before.Mallocs
	r.gcs = after.NumGC - before.NumGC
	if err == nil && f.check != nil {
		err = f.check()
	}
	return r, err
}

// timedRounds runs rounds until at least minRounds have run and
// seconds have passed (or roundLimit is hit), returning each round;
// seconds = 0 runs exactly minRounds.
func timedRounds(seconds float64, minRounds int, f roundFunc) ([]round, error) {
	start := time.Now()
	var out []round
	for len(out) < minRounds || time.Since(start).Seconds() < seconds {
		if time.Since(start) >= roundLimit {
			break
		}
		r, err := measureRound(f)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// pairedRounds runs n pairs of rounds, an untraced round then a traced
// one, so that a slow spell of the host lands on both sides of a pair.
func pairedRounds(n int, untraced, traced roundFunc) (u, t []round, err error) {
	for i := 0; i < n; i++ {
		for _, side := range []struct {
			f   roundFunc
			out *[]round
		}{{untraced, &u}, {traced, &t}} {
			r, err := measureRound(side.f)
			if err != nil {
				return u, t, err
			}
			*side.out = append(*side.out, r)
		}
	}
	return u, t, nil
}

// medianSetup runs setup k times back to back and returns the median
// wall time in seconds; the state of the last run stays in place for
// the rounds.
func medianSetup(k int, setup func() error) (float64, error) {
	var ts []float64
	for i := 0; i < k; i++ {
		t := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	return median(ts), nil
}

// walls returns each round's wall time.
func walls(rs []round) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.wall
	}
	return out
}

// latencies returns every operation latency of the rounds.
func latencies(rs []round) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.lat...)
	}
	return out
}

// endToEnd assembles the end-to-end metrics from the set-up time, the
// timed rounds and the workload's prediction error. latency_tail_ms is
// the workload's tail percentile p, fixed per workload so that a faster
// program, fitting more rounds into the run, reports the same
// percentile; the run fails if fewer than minBeyond samples lie beyond
// it.
func endToEnd(setup float64, rs []round, predErrPct, p float64) (map[string]metric, error) {
	lat := latencies(rs)
	if max, ok := tailPercentile(len(lat)); !ok || max < p {
		return nil, fmt.Errorf("%d latency samples do not support p%g", len(lat), p)
	}
	allocs := make([]float64, len(rs))
	for i, r := range rs {
		allocs[i] = float64(r.alloc) / 1e6
	}
	fmt.Printf("timed: %d rounds, %d operations; latency_tail_ms is p%g\n", len(rs), len(lat), p)
	fmt.Printf("round walls (s):")
	for _, w := range walls(rs) {
		fmt.Printf(" %.4f", w)
	}
	fmt.Println()
	return map[string]metric{
		"setup_s":         {setup, "s"},
		"round_s":         {median(walls(rs)), "s"},
		"latency_p50_ms":  {median(lat) * 1e3, "ms"},
		"latency_tail_ms": {percentile(lat, p) * 1e3, "ms"},
		"alloc_mb":        {median(allocs), "MB"},
		"pred_err_pct":    {predErrPct, "%"},
	}, nil
}

// relErrPct accumulates |predicted − simulated| / simulated in percent.
type relErrPct struct {
	sum float64
	n   int
}

func (e *relErrPct) add(pred, sim float64) {
	d := pred - sim
	if d < 0 {
		d = -d
	}
	e.sum += d / sim * 100
	e.n++
}

func (e *relErrPct) mean() float64 {
	if e.n == 0 {
		return 0
	}
	return e.sum / float64(e.n)
}
