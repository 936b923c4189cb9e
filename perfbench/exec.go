package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// exec-fluid: the planner's own plans executed in simulation. Set-up
// characterizes ge-3lvl under the fluid engine and applies
// SelectCoordinators; each operation is one grid.SimulateSpecKindFailover
// run, with an empty fault schedule, of one kind's hierarchical plan; a
// round is the whole suite.

const (
	// execSetups is how many times set-up runs for its median.
	execSetups = 5
	// execMinRounds keeps the 100 samples the p90 tail needs.
	execMinRounds = 8
	execTail      = 90
	// execSelectSize is the size coordinators are selected at.
	execSelectSize = 64 << 10
)

// execStudy is one exec-fluid run's state.
type execStudy struct {
	cfg   config
	cnt   counts
	topo  cluster.TopoNode
	suite []execOp
	pl    *grid.Planner
	spec  coll.TreeSpec
	// pred is each suite operation's predicted time; simT its simulated
	// time from the first run, which every later run must reproduce.
	pred, simT []float64
	delivered  int
}

func runExec(cfg config) (result, error) {
	s := &execStudy{cfg: cfg, suite: execSuite(cfg.seed)}
	res := result{Correct: true}
	finish := func(res result) result {
		res.Attempted, res.Failed = s.cnt.attempted, s.cnt.failed
		return res
	}
	setup, err := medianSetup(execSetups, s.setup)
	if err != nil {
		return res, err
	}
	if err := s.predict(); err != nil {
		return res, err
	}
	plain := roundFunc{body: func(lat *[]float64) error { return s.round(lat, nil) }}
	if _, err := measureRound(plain); err != nil {
		return finish(res), err
	}
	if !cfg.trace {
		rs, err := timedRounds(cfg.seconds, execMinRounds, plain)
		if err != nil {
			return finish(res), err
		}
		var e relErrPct
		for i, p := range s.pred {
			e.add(p, s.simT[i])
		}
		res.Metrics, err = endToEnd(setup, rs, e.mean(), execTail)
		return finish(res), err
	}
	res.Metrics, err = s.traced(plain)
	return finish(res), err
}

// setup characterizes the topology under the fluid engine, selects
// coordinators, and calibrates every kind's correction curve.
func (s *execStudy) setup() error {
	topo, err := execTopo()
	if err != nil {
		return err
	}
	pl, err := grid.NewPlanner(topo, execOptions())
	if err != nil {
		return err
	}
	if _, err := pl.SelectCoordinators(execSelectSize); err != nil {
		return err
	}
	for _, k := range suiteKinds {
		if _, err := pl.PredictKind(k, execSizes[0]); err != nil {
			return fmt.Errorf("calibrate %v: %w", k, err)
		}
	}
	s.topo, s.pl, s.spec = topo, pl, pl.PlanSpec()
	return nil
}

// predict records each suite operation's predicted time.
func (s *execStudy) predict() error {
	s.pred = make([]float64, len(s.suite))
	for i, op := range s.suite {
		preds, err := s.pl.PredictKind(op.Kind, op.M)
		if err != nil {
			return err
		}
		for _, p := range preds {
			if p.Strategy == op.Strat {
				s.pred[i] = p.T
			}
		}
		if s.pred[i] == 0 {
			return fmt.Errorf("no %v prediction for %v at %d", op.Strat, op.Kind, op.M)
		}
	}
	return nil
}

// round executes the suite once. Every run must pass the failover
// runtime's delivery check with nothing lost, duplicated or abandoned,
// and reproduce the simulated time of the operation's first run.
func (s *execStudy) round(lat *[]float64, tr *tracer) error {
	var c *obs.Collector
	if tr != nil {
		c = tr.c
	}
	first := s.simT == nil
	if first {
		s.simT = make([]float64, len(s.suite))
	}
	s.delivered = 0
	for i, op := range s.suite {
		alg, _ := grid.DescribeStrategy(op.Strat)
		var res coll.FailoverResult
		var t float64
		sp := tr.span("bench.exec.run", obs.Str("kind", op.Kind.String()), obs.Str("strategy", op.Strat.String()), obs.Int("m", op.M))
		err := s.cnt.op(lat, func() (err error) {
			res, t, err = grid.SimulateSpecKindFailover(c, grid.SimConfig{Mode: sim.ModeFluid},
				s.topo, s.spec, op.Kind, alg, op.M, op.Seed, netsim.FaultSchedule{}, 0)
			return err
		})
		sp.End()
		name := fmt.Sprintf("%v %v m=%d seed=%d", op.Kind, op.Strat, op.M, op.Seed)
		switch {
		case err != nil:
			return fmt.Errorf("%s: %w", name, err)
		case res.Incomplete || res.DuplicateBlocks != 0 || len(res.Dead) != 0 || res.DeliveredBlocks == 0:
			return fmt.Errorf("%s: bad delivery %+v", name, res)
		case first:
			s.simT[i] = t
		case t != s.simT[i]:
			return fmt.Errorf("%s: simulated %v s, first run simulated %v s", name, t, s.simT[i])
		}
		s.delivered += res.DeliveredBlocks
	}
	return nil
}

// traced is the traced run: untraced rounds for the baseline and the
// per-kind execution times, interleaved with traced rounds (whose
// simulated times must match the untraced ones) for the counters, then
// direct timings of the grid build and plan compile every execution
// starts with.
func (s *execStudy) traced(plain roundFunc) (map[string]metric, error) {
	c := obs.New()
	tr := newTracer(c, s.cfg)
	untraced, traced, err := pairedRounds(tracePairs, plain,
		roundFunc{body: func(lat *[]float64) error { return s.round(lat, tr) }})
	if err != nil {
		return nil, err
	}
	l := newLayers()
	setSimLayers(l, snap(c), len(traced), median(walls(untraced)))
	setRuntimeLayers(l, untraced, traced)
	l.set("coll.delivered_blocks", float64(s.delivered))
	byKind := map[coll.Kind][]float64{}
	for _, r := range untraced {
		for i, d := range r.lat {
			k := s.suite[i%len(s.suite)].Kind
			byKind[k] = append(byKind[k], d)
		}
	}
	for k, ds := range byKind {
		l.set("coll.exec_ms."+k.String(), median(ds)*1e3)
	}

	buildUS, err := medianTime(tr, "bench.cluster.build", 30, time.Microsecond, func() error {
		_, err := cluster.BuildGridTree(s.topo, s.suite[0].Seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	l.set("cluster.build_us", buildUS)
	compileUS, err := medianTime(tr, "bench.coll.compile", 30, time.Microsecond, func() error {
		for _, op := range s.suite {
			alg, _ := grid.DescribeStrategy(op.Strat)
			coll.PlanKindTree(s.spec, op.Kind, alg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.set("coll.compile_us", compileUS/float64(len(s.suite)))
	err = checkTrace(s.cfg, c,
		[]string{"bench.exec.run", "bench.cluster.build", "bench.coll.compile", grid.SpanFailover},
		[]string{"planner.validations>=1", "failover.declared=0"})
	return l, err
}
