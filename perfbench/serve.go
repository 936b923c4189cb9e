package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sim"
)

// warm-serve: a seeded request stream against a warm grid.Service that
// starts the way a new process does, from a store file set-up filled
// and saved. No simulation runs; model pricing and the service's
// planner cache and store do all the work. Each operation is one
// request; a round is the whole stream.

const (
	// serveSetups is how many times set-up runs for its median.
	serveSetups = 5
	// serveMinRounds rounds hold far more than the 1000 requests p99
	// needs.
	serveMinRounds = 5
	serveTail      = 99
	// servePredSize is the per-pair size the prediction error is taken
	// at, over servePredSeeds simulation seeds per topology.
	servePredSize  = 64 << 10
	servePredSeeds = 3
)

// answer is one request's response.
type answer struct {
	preds  []grid.Prediction
	coords []grid.CoordChoice
}

// equal reports whether two answers are bit-identical.
func (a answer) equal(b answer) bool {
	if len(a.preds) != len(b.preds) {
		return false
	}
	for i := range a.preds {
		if a.preds[i] != b.preds[i] {
			return false
		}
	}
	return reflect.DeepEqual(a.coords, b.coords)
}

// serveStudy is one warm-serve run's state.
type serveStudy struct {
	cfg    config
	cnt    counts
	topos  []cluster.TopoNode
	stream []request
	mats   [][]coll.SizeMatrix
	opt    grid.Options
	path   string
	// fill is the set-up service that characterized every topology;
	// its planners are the reference answers. svc is the warm service
	// under test, started from the saved store.
	fill, svc *grid.Service
	records   int
	// want is each stream request's reference answer, got its answer
	// in the last round.
	want, got []answer
	lenMax    int
}

func runServe(cfg config) (result, error) {
	s := &serveStudy{
		cfg:    cfg,
		topos:  serveTopos(),
		stream: serveStream(cfg.seed),
		opt:    serveOptions(),
		path:   filepath.Join(cfg.workDir, "serve-store.json"),
	}
	s.mats = serveMatrices(s.topos)
	res := result{Correct: true}
	finish := func(res result) result {
		res.Attempted, res.Failed = s.cnt.attempted, s.cnt.failed
		return res
	}
	setup, err := medianSetup(serveSetups, s.setup)
	if err != nil {
		return res, err
	}
	if err := s.expect(); err != nil {
		return res, err
	}
	plain := roundFunc{
		body:  func(lat *[]float64) error { return s.round(s.svc, lat, nil) },
		check: func() error { return s.verify(s.svc) },
	}
	if _, err := measureRound(plain); err != nil {
		return finish(res), err
	}
	if !cfg.trace {
		rs, err := timedRounds(cfg.seconds, serveMinRounds, plain)
		if err != nil {
			return finish(res), err
		}
		fmt.Printf("service: cache cap %d, max len %d\n", serveCacheCap, s.lenMax)
		predErr, err := s.predErr()
		if err != nil {
			return finish(res), err
		}
		res.Metrics, err = endToEnd(setup, rs, predErr, serveTail)
		return finish(res), err
	}
	res.Metrics, err = s.traced(plain)
	return finish(res), err
}

// setup fills a store by a fluid cold characterization of every
// topology, including each kind's correction curve and the coordinator
// selection at every requested size, saves it, loads it back and
// warm-starts the service from it.
func (s *serveStudy) setup() error {
	if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	fillOpt := s.opt
	fillOpt.CacheCap = len(s.topos) // keep every set-up planner
	fill, err := grid.NewService(fillOpt)
	if err != nil {
		return err
	}
	for _, tp := range s.topos {
		for _, k := range suiteKinds {
			if _, err := fill.PredictKind(tp, k, serveSizes[0]); err != nil {
				return fmt.Errorf("characterize %s: %w", tp.Name, err)
			}
		}
		for _, m := range serveSizes {
			if _, err := fill.SelectCoordinators(tp, m); err != nil {
				return fmt.Errorf("select coordinators %s: %w", tp.Name, err)
			}
		}
	}
	if err := fill.Store().SaveFile(s.path); err != nil {
		return err
	}
	st, err := grid.LoadCurveStoreFile(s.path)
	if err != nil {
		return err
	}
	svc, err := grid.NewServiceWithStore(s.opt, st)
	if err != nil {
		return err
	}
	s.fill, s.svc, s.records = fill, svc, st.Len()
	return nil
}

// call serves one request.
func (s *serveStudy) call(svc *grid.Service, q request) (answer, error) {
	tp := s.topos[q.Topo]
	var a answer
	var err error
	switch q.Op {
	case opPredictKind:
		a.preds, err = svc.PredictKind(tp, q.Kind, q.M)
	case opPredictV:
		a.preds, err = svc.PredictV(tp, s.mats[q.Topo][q.Matrix])
	default:
		a.coords, err = svc.SelectCoordinators(tp, q.M)
	}
	return a, err
}

// expect computes the reference answer of every stream request from
// the set-up planners.
func (s *serveStudy) expect() error {
	byReq := map[request]answer{}
	s.want = make([]answer, len(s.stream))
	s.got = make([]answer, len(s.stream))
	for i, q := range s.stream {
		a, ok := byReq[q]
		if !ok {
			var err error
			if a, err = s.call(s.fill, q); err != nil {
				return fmt.Errorf("reference answer: %w", err)
			}
			byReq[q] = a
		}
		s.want[i] = a
	}
	return nil
}

// round serves the whole stream on svc, keeping each answer for verify
// and checking after each request that the cache stays within its cap.
func (s *serveStudy) round(svc *grid.Service, lat *[]float64, tr *tracer) error {
	for i, q := range s.stream {
		sp := tr.span("bench.serve.request", obs.Int("topo", q.Topo), obs.Int("op", int(q.Op)))
		err := s.cnt.op(lat, func() (err error) {
			s.got[i], err = s.call(svc, q)
			return err
		})
		sp.End()
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		n := svc.Len()
		if n > serveCacheCap {
			return fmt.Errorf("request %d: service holds %d planners, cap %d", i, n, serveCacheCap)
		}
		if n > s.lenMax {
			s.lenMax = n
		}
	}
	return nil
}

// verify runs after a round, outside its timing: every answer must be
// bit-identical to the set-up planner's, and the store must have gained
// no record (no probe simulation ran).
func (s *serveStudy) verify(svc *grid.Service) error {
	for i, q := range s.stream {
		if !s.got[i].equal(s.want[i]) {
			return fmt.Errorf("request %d (%s, op %d): answer differs from the set-up planner's",
				i, s.topos[q.Topo].Name, q.Op)
		}
		s.got[i] = answer{}
	}
	if n := svc.Store().Len(); n != s.records {
		return fmt.Errorf("store holds %d records after a round, %d after set-up: a request probed", n, s.records)
	}
	return nil
}

// predErr returns the mean error of the set-up planners' All-to-All
// predictions against fluid-engine simulations of each strategy.
func (s *serveStudy) predErr() (float64, error) {
	r := derive(s.cfg.seed ^ 0xe77)
	var e relErrPct
	for _, tp := range s.topos {
		pl, err := s.fill.PlannerFor(tp)
		if err != nil {
			return 0, err
		}
		for i := 0; i < servePredSeeds; i++ {
			seed := subSeed(r)
			for _, p := range pl.Predict(servePredSize) {
				t, err := grid.SimulateIn(grid.SimConfig{Mode: sim.ModeFluid}, tp, p.Strategy, servePredSize, seed, 0, 1)
				if err != nil {
					return 0, fmt.Errorf("validate %s %v: %w", tp.Name, p.Strategy, err)
				}
				e.add(p.T, t)
			}
		}
	}
	return e.mean(), nil
}

// traced is the traced run: untraced rounds interleaved with rounds of
// the same stream against a second warm service whose Options.Trace
// collects the service and store counters, then direct timings of the
// store, a warm rebuild and the model's pricing.
func (s *serveStudy) traced(plain roundFunc) (map[string]metric, error) {
	c := obs.New()
	tr := newTracer(c, s.cfg)
	topt := s.opt
	topt.Trace = c
	st, err := grid.LoadCurveStoreFile(s.path)
	if err != nil {
		return nil, err
	}
	tsvc, err := grid.NewServiceWithStore(topt, st)
	if err != nil {
		return nil, err
	}
	traceRound := roundFunc{
		body:  func(lat *[]float64) error { return s.round(tsvc, lat, tr) },
		check: func() error { return s.verify(tsvc) },
	}
	if _, err := measureRound(traceRound); err != nil {
		return nil, err
	}
	if p := c.Counter(grid.CtrProbes).Value(); p != 0 {
		return nil, fmt.Errorf("warm service ran %d probe simulations", p)
	}
	c.Reset() // the warm-up's events would only double the trace
	lenBefore := tsvc.Len()
	untraced, traced, err := pairedRounds(tracePairs, plain, traceRound)
	if err != nil {
		return nil, err
	}

	l := newLayers()
	ctr := snap(c)
	per := func(name string) float64 { return float64(ctr[name]) / float64(len(traced)) }
	setRuntimeLayers(l, untraced, traced)
	// Every planner build inserts one cache entry and every eviction
	// drops one, so the builds are the evictions plus the cache's growth.
	builds := float64(ctr[grid.CtrServiceEvict]) + float64(tsvc.Len()-lenBefore)
	requests := float64(len(traced) * len(s.stream))
	l.set("service.hit_ratio", 1-builds/requests)
	l.set("service.evict", per(grid.CtrServiceEvict))
	l.set("service.len_max", float64(s.lenMax))
	l.set("store.hit", per(grid.CtrStoreHit))
	l.set("store.miss", per(grid.CtrStoreMiss))

	save := filepath.Join(s.cfg.workDir, "serve-store-resave.json")
	saveMS, err := medianTime(tr, "bench.store.save", 5, time.Millisecond, func() error {
		return s.fill.Store().SaveFile(save)
	})
	if err != nil {
		return nil, err
	}
	loadMS, err := medianTime(tr, "bench.store.load", 5, time.Millisecond, func() error {
		_, err := grid.LoadCurveStoreFile(s.path)
		return err
	})
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(s.path)
	if err != nil {
		return nil, err
	}
	l.set("store.save_ms", saveMS)
	l.set("store.load_ms", loadMS)
	l.set("store.bytes", float64(fi.Size()))

	warmUS, err := medianTime(tr, "bench.service.warm_build", 5, time.Microsecond, func() error {
		fresh, err := grid.NewServiceWithStore(s.opt, st)
		if err != nil {
			return err
		}
		for _, tp := range s.topos {
			if _, err := fresh.PlannerFor(tp); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.set("service.warm_build_us", warmUS/float64(len(s.topos)))

	pl, err := s.fill.PlannerFor(s.topos[0])
	if err != nil {
		return nil, err
	}
	m, sz := pl.Model, s.mats[0][0]
	calls := 2*len(suiteKinds) + 3
	predUS, err := medianTime(tr, "bench.model.predict", 200, time.Microsecond, func() error {
		for _, k := range suiteKinds {
			m.PredictKindFlat(k, servePredSize)
			m.PredictKindHier(k, servePredSize)
		}
		m.PredictFlatV(sz)
		m.PredictHierGatherV(sz)
		m.PredictHierDirectV(sz)
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.set("model.predict_us", predUS/float64(calls))

	err = checkTrace(s.cfg, c,
		[]string{"bench.serve.request", "bench.store.save", "bench.store.load", "bench.service.warm_build", "bench.model.predict"},
		[]string{"planner.probes=0", "store.miss=0", "store.hit>=1"})
	return l, err
}
