package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/obs"
)

// cold-characterize: the user's "new grid" path. Each operation is one
// cold grid.NewPlanner build, without a store, of the canonical 3-level
// topology under the packet engine; a round builds every seed of the
// round batch once.

const (
	// coldSetups is how many times set-up runs for its median; it is
	// cheap, so many runs steady the median.
	coldSetups = 201
	// coldMinRounds keeps at least 20 builds, the fewest with ten
	// samples beyond the median, which is then also the tail.
	coldMinRounds = 10
	coldTail      = 50
	// coldPredSize is the per-pair size the prediction error is taken
	// at: the sweep's strategy probe size.
	coldPredSize = 128 << 10
)

// coldStudy is one cold-characterize run's state.
type coldStudy struct {
	cfg   config
	topo  cluster.TopoNode
	seeds []int64
	opts  []grid.Options
	cnt   counts
	// digest and store hold each seed's reference fit from the
	// warm-up round: a digest of the planner and its store's JSON.
	digest []string
	store  [][]byte
	last   []*grid.Planner
}

func runCold(cfg config) (result, error) {
	s := &coldStudy{cfg: cfg, seeds: coldSeeds(cfg.seed)}
	res := result{Correct: true}
	setup, err := medianSetup(coldSetups, s.setup)
	if err != nil {
		return res, err
	}
	if _, err := measureRound(roundFunc{body: s.warmup}); err != nil {
		return s.finish(res), err
	}
	if !cfg.trace {
		rs, err := timedRounds(cfg.seconds, coldMinRounds, roundFunc{body: func(lat *[]float64) error { return s.round(lat, nil) }})
		if err != nil {
			return s.finish(res), err
		}
		predErr, err := s.check()
		if err != nil {
			return s.finish(res), err
		}
		res.Metrics, err = endToEnd(setup, rs, predErr, coldTail)
		return s.finish(res), err
	}
	res.Metrics, err = s.traced()
	return s.finish(res), err
}

// finish copies the operation counts into the result.
func (s *coldStudy) finish(res result) result {
	res.Attempted, res.Failed = s.cnt.attempted, s.cnt.failed
	return res
}

// setup builds the topology and every build's options, and checks the
// topology instantiates.
func (s *coldStudy) setup() error {
	s.topo = coldTopo()
	s.opts = s.opts[:0]
	for _, seed := range s.seeds {
		s.opts = append(s.opts, coldOptions(seed))
	}
	_, err := cluster.BuildGridTree(s.topo, s.seeds[0])
	return err
}

// storeBuild characterizes seed i cold through a service over an empty
// store, returning the planner and the store's JSON.
func (s *coldStudy) storeBuild(i int) (*grid.Planner, []byte, error) {
	svc, err := grid.NewServiceWithStore(s.opts[i], grid.NewCurveStore())
	if err != nil {
		return nil, nil, err
	}
	pl, err := svc.PlannerFor(s.topo)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := svc.SaveStore(&buf); err != nil {
		return nil, nil, err
	}
	return pl, buf.Bytes(), nil
}

// warmup is the discarded first round: each seed is characterized
// through an empty store, recording the reference fits.
func (s *coldStudy) warmup(lat *[]float64) error {
	s.digest = make([]string, len(s.seeds))
	s.store = make([][]byte, len(s.seeds))
	for i := range s.seeds {
		var pl *grid.Planner
		if err := s.cnt.op(lat, func() (err error) {
			pl, s.store[i], err = s.storeBuild(i)
			return err
		}); err != nil {
			return fmt.Errorf("warm-up build seed %d: %w", s.seeds[i], err)
		}
		d, err := plannerDigest(pl)
		if err != nil {
			return err
		}
		s.digest[i] = d
	}
	return nil
}

// round builds every seed once with grid.NewPlanner.
func (s *coldStudy) round(lat *[]float64, tr *tracer) error {
	s.last = nil
	for i := range s.seeds {
		if err := s.build(lat, tr, i); err != nil {
			return err
		}
	}
	return nil
}

// build runs the build of seed i and checks its fit against the seed's
// reference. A non-nil tracer threads its collector through
// Options.Trace and wraps the build in a span.
func (s *coldStudy) build(lat *[]float64, tr *tracer, i int) error {
	opt := s.opts[i]
	if tr != nil {
		opt.Trace = tr.c
	}
	var pl *grid.Planner
	sp := tr.span("bench.cold.build", obs.I64("seed", s.seeds[i]))
	err := s.cnt.op(lat, func() (err error) {
		pl, err = grid.NewPlanner(s.topo, opt)
		return err
	})
	sp.End()
	if err != nil {
		return fmt.Errorf("build seed %d: %w", s.seeds[i], err)
	}
	d, err := plannerDigest(pl)
	if err != nil {
		return err
	}
	if d != s.digest[i] {
		return fmt.Errorf("build seed %d: fit differs from the seed's first build", s.seeds[i])
	}
	s.last = append(s.last, pl)
	return nil
}

// check rebuilds the first seed through an empty store and requires
// byte-identical store JSON to the warm-up's build, then returns the
// last round's prediction error: every strategy's All-to-All
// prediction against a packet-engine simulation of the same plan.
func (s *coldStudy) check() (float64, error) {
	_, js, err := s.storeBuild(0)
	if err != nil {
		return 0, fmt.Errorf("check build: %w", err)
	}
	if !bytes.Equal(js, s.store[0]) {
		return 0, fmt.Errorf("seed %d: store JSON of two cold builds differs (%d vs %d bytes)",
			s.seeds[0], len(js), len(s.store[0]))
	}
	var e relErrPct
	for i, pl := range s.last {
		for _, p := range pl.Predict(coldPredSize) {
			t, err := grid.SimulateIn(grid.SimConfig{}, s.topo, p.Strategy, coldPredSize, s.seeds[i], 0, 1)
			if err != nil {
				return 0, fmt.Errorf("validate %v: %w", p.Strategy, err)
			}
			e.add(p.T, t)
		}
	}
	return e.mean(), nil
}

// traced is the traced run: untraced rounds for the baseline
// interleaved with traced rounds for the counters, then direct timings
// of the cluster and coll calls a build makes per probe.
func (s *coldStudy) traced() (map[string]metric, error) {
	c := obs.New()
	tr := newTracer(c, s.cfg)
	probes := make([]uint64, len(s.seeds)) // each seed's first traced build
	plain := roundFunc{body: func(lat *[]float64) error { return s.round(lat, nil) }}
	untraced, traced, err := pairedRounds(tracePairs, plain, roundFunc{body: func(lat *[]float64) error {
		s.last = nil
		for i, seed := range s.seeds {
			before := c.Counter(grid.CtrProbes).Value()
			if err := s.build(lat, tr, i); err != nil {
				return err
			}
			n := c.Counter(grid.CtrProbes).Value() - before
			if probes[i] == 0 {
				probes[i] = n
			} else if n != probes[i] {
				return fmt.Errorf("seed %d: probe counts differ between builds (%d vs %d)", seed, probes[i], n)
			}
		}
		return nil
	}})
	if err != nil {
		return nil, err
	}
	if _, err := s.check(); err != nil {
		return nil, err
	}
	l := newLayers()
	k := float64(len(traced))
	ctr := snap(c)
	setSimLayers(l, ctr, len(traced), median(walls(untraced)))
	setRuntimeLayers(l, untraced, traced)
	buildMS := median(latencies(untraced)) * 1e3
	probesPer := float64(ctr[grid.CtrProbes]) / k
	l.set("grid.build_ms", buildMS)
	l.set("grid.probes", probesPer)
	l.set("grid.ms_per_probe", buildMS*float64(len(s.seeds))/probesPer)
	l.set("planner.fit_strategy_ms", spanTotalsMS(c, "planner.fit_strategy")/k)
	l.set("planner.leaf_fit_ms", spanTotalsMS(c, "planner.leaf_fit")/k)
	l.set("tier.characterize_ms", spanTotalsMS(c, "tier.characterize")/k)

	buildUS, err := medianTime(tr, "bench.cluster.build", 50, time.Microsecond, func() error {
		_, err := cluster.BuildGridTree(s.topo, s.seeds[0])
		return err
	})
	if err != nil {
		return nil, err
	}
	l.set("cluster.build_us", buildUS)
	spec := s.last[0].PlanSpec()
	compileUS, err := medianTime(tr, "bench.coll.compile", 50, time.Microsecond, func() error {
		for _, kind := range suiteKinds {
			coll.PlanKindTree(spec, kind, coll.HierGather)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.set("coll.compile_us", compileUS/float64(len(suiteKinds)))
	err = checkTrace(s.cfg, c,
		[]string{"bench.cold.build", "bench.cluster.build", "bench.coll.compile", "planner.characterize", "planner.fit_strategy"},
		[]string{"planner.probes>=1"})
	return l, err
}

// plannerDigest hashes a planner's fitted state: model tree and
// factor curves, leaf fits, headroom, probe statistics and warnings.
// The model's trace hook is left out, so traced and untraced builds
// hash alike.
func plannerDigest(pl *grid.Planner) (string, error) {
	m := pl.Model
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Root            *model.ModelNode
		Overlap, Gather model.FactorCurve
		CombineBeta     float64
		Hockney         []model.Hockney
		Headroom        [][]float64
		ProbeStats      []grid.ProbeStat
		Warnings        []grid.ProbeWarning
	}{m.Root, m.OverlapGamma, m.GatherGamma, m.CombineBeta, pl.Hockney, pl.Headroom, pl.ProbeStats, pl.Warnings})
	if err != nil {
		return "", fmt.Errorf("digest planner: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return fmt.Sprintf("%x", sum[:12]), nil
}
