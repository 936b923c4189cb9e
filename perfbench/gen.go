package main

import (
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/sim"
)

// Inputs of every workload are generated here, from the run's seed,
// before any clock starts. The same seed always yields the same inputs.

// suiteKinds are the collective kinds with a uniform per-rank size:
// every kind of the suite but the size-matrix-bound All-to-Allv.
var suiteKinds = []coll.Kind{
	coll.KindAlltoall, coll.KindAllgather, coll.KindBroadcast,
	coll.KindReduce, coll.KindReduceScatter, coll.KindAllreduce,
}

// derive returns the deterministic random stream of seed.
func derive(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// subSeed draws one positive simulation seed.
func subSeed(r *rand.Rand) int64 { return r.Int63n(1<<31) + 1 }

// --- cold-characterize ---------------------------------------------

// coldTopo is the canonical 3-level characterization subject of
// BENCH_SIM.json: two national tiers of two campuses of two Gigabit
// Ethernet nodes, 30 ms top and 10 ms inner WAN.
func coldTopo() cluster.TopoNode {
	ge := cluster.WANTuned(cluster.GigabitEthernet())
	return cluster.ThreeLevel("bench3", ge, 2, 2, 2,
		cluster.DefaultWAN(30*sim.Millisecond), cluster.DefaultWAN(10*sim.Millisecond))
}

// coldOptions is BENCH_SIM.json's bulk-transfer sweep under the packet
// engine, with the probe pool pinned to one worker.
func coldOptions(seed int64) grid.Options {
	return grid.Options{
		FitN:       6,
		FitSizes:   []int{8 << 10, 16 << 10, 32 << 10, 64 << 10},
		WANSizes:   []int{64 << 10, 256 << 10, 1 << 20, 2 << 20},
		ProbeSizes: []int{128 << 10},
		Reps:       1,
		Seed:       seed,
		SimMode:    sim.ModePacket,
		Workers:    1,
	}
}

// coldBuildsPerRound is the cold-characterize round: this many builds,
// each with its own characterization seed.
const coldBuildsPerRound = 2

// coldSeeds returns the characterization seeds of one cold round.
func coldSeeds(seed int64) []int64 {
	r := derive(seed)
	out := make([]int64, coldBuildsPerRound)
	for i := range out {
		out[i] = subSeed(r)
	}
	return out
}

// --- warm-serve ----------------------------------------------------

// setupSeed is the characterization seed of the warm-serve store and
// the exec-fluid planner. Set-up is the system's configuration, not
// the workload's input, so it stays fixed and setup_s and the fitted
// model compare across runs; the run seed drives the request stream,
// the size matrices and the simulation seeds.
const setupSeed = 11

// serveTopos are the served deployments, most popular first. They
// share member profiles and WAN tiers, so the store reuses leaf fits
// across them as a real catalogue would.
func serveTopos() []cluster.TopoNode {
	ge := cluster.WANTuned(cluster.GigabitEthernet())
	fe := cluster.WANTuned(cluster.FastEthernet())
	return []cluster.TopoNode{
		cluster.Uniform("ge-2x3", ge, 2, 3, cluster.DefaultWAN(20*sim.Millisecond)).Tree(),
		cluster.Uniform("fe-2x3", fe, 2, 3, cluster.DefaultWAN(20*sim.Millisecond)).Tree(),
		cluster.Uniform("ge-3x2", ge, 3, 2, cluster.DefaultWAN(10*sim.Millisecond)).Tree(),
		cluster.Uniform("ge-2x4", ge, 2, 4, cluster.DefaultWAN(30*sim.Millisecond)).Tree(),
		cluster.Uniform("fe-3x2", fe, 3, 2, cluster.DefaultWAN(15*sim.Millisecond)).Tree(),
	}
}

// servePopularity weights requests across serveTopos: skewed, so the
// head stays cached while the tail keeps evicting. Like the op mix of
// serveStream, the weights are chosen, not taken from a traffic trace:
// with serveCacheCap they make about a quarter of requests rebuild a
// planner, the miss share a prototype of this workload measured, so
// every round holds both cache hits and warm rebuilds. The traced run
// reports the measured share as service.hit_ratio.
var servePopularity = []float64{0.42, 0.25, 0.15, 0.10, 0.08}

// serveCacheCap is the service's planner cache bound, below the
// topology count so the tail forces warm rebuilds.
const serveCacheCap = 3

// serveOptions is the fluid characterization the store is filled with.
func serveOptions() grid.Options {
	return grid.Options{
		FitN:       6,
		FitSizes:   []int{8 << 10, 16 << 10, 32 << 10, 64 << 10},
		WANSizes:   []int{64 << 10, 256 << 10, 1 << 20},
		ProbeSizes: []int{64 << 10},
		ProbeCap:   2,
		Reps:       1,
		Seed:       setupSeed,
		SimMode:    sim.ModeFluid,
		Workers:    1,
		CacheCap:   serveCacheCap,
	}
}

// serveSizes are the per-rank sizes requests ask about.
var serveSizes = []int{16 << 10, 64 << 10, 256 << 10, 1 << 20}

// skewedShapes are the canonical skewed request shapes of
// cluster.SkewedWorkloads each topology's PredictV requests ask about.
var skewedShapes = []string{"hotspot-row", "block-diagonal"}

// serveMatrices returns each topology's size matrix of every skewed
// shape, indexed like skewedShapes.
func serveMatrices(topos []cluster.TopoNode) [][]coll.SizeMatrix {
	out := make([][]coll.SizeMatrix, len(topos))
	for t, tp := range topos {
		shapes := cluster.SkewedWorkloads(tp)
		for _, name := range skewedShapes {
			out[t] = append(out[t], coll.SizeMatrixFromRows(shapes[name]))
		}
	}
	return out
}

// reqOp is the service call of one request.
type reqOp int

const (
	opPredictKind reqOp = iota
	opPredictV
	opSelect
)

// request is one call of the warm-serve stream. Matrix indexes
// skewedShapes (opPredictV only).
type request struct {
	Topo   int
	Op     reqOp
	Kind   coll.Kind
	M      int
	Matrix int
}

// serveRequestsPerRound is the warm-serve round: this many requests.
const serveRequestsPerRound = 40000

// serveStream returns one round's request stream: 60% PredictKind,
// 25% PredictV and 15% SelectCoordinators, over servePopularity.
func serveStream(seed int64) []request {
	r := derive(seed)
	out := make([]request, serveRequestsPerRound)
	for i := range out {
		q := request{Topo: pick(r, servePopularity)}
		switch x := r.Float64(); {
		case x < 0.6:
			q.Op = opPredictKind
			q.Kind = suiteKinds[r.Intn(len(suiteKinds))]
			q.M = serveSizes[r.Intn(len(serveSizes))]
		case x < 0.85:
			q.Op = opPredictV
			q.Matrix = r.Intn(len(skewedShapes))
		default:
			q.Op = opSelect
			q.M = serveSizes[r.Intn(len(serveSizes))]
		}
		out[i] = q
	}
	return out
}

// pick draws an index with the given (summing to one) weights.
func pick(r *rand.Rand, weights []float64) int {
	x := r.Float64()
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// --- exec-fluid ----------------------------------------------------

// execOptions is the fluid characterization of the exec-fluid planner.
func execOptions() grid.Options {
	o := serveOptions()
	o.CacheCap = 0
	return o
}

// execTopo is the canonical ge-3lvl grid tree.
func execTopo() (cluster.TopoNode, error) { return cluster.TreeByName("ge-3lvl") }

// execSizes are the per-rank sizes every kind runs at.
var execSizes = []int{64 << 10, 256 << 10}

// execOp is one plan execution of the exec-fluid suite.
type execOp struct {
	Kind  coll.Kind
	Strat grid.Strategy
	M     int
	Seed  int64
}

// execSuite returns one round's plan executions: every uniform kind at
// every exec size under each of its hierarchical strategies, each with
// its own simulation seed.
func execSuite(seed int64) []execOp {
	r := derive(seed)
	var out []execOp
	for _, k := range suiteKinds {
		for _, m := range execSizes {
			for _, s := range grid.StrategiesFor(k) {
				if _, hier := grid.DescribeStrategy(s); !hier {
					continue
				}
				out = append(out, execOp{Kind: k, Strat: s, M: m, Seed: subSeed(r)})
			}
		}
	}
	return out
}
