// Command perfbench is the repository's benchmark: three closed-loop
// workloads, each driven by one client goroutine in one process,
// that reach the stack through the public API of internal/{cluster,
// sim,netsim,transport,mpi,coll,model,grid,obs}.
//
//	cold-characterize  repeated cold packet-engine planner builds
//	warm-serve         a request stream against a warm grid.Service
//	exec-fluid         the planner's own plans executed under the fluid engine
//
// A run prints its metrics by name and unit and checks the program's
// outputs; the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics. With -trace 0 the
// metrics are the end-to-end ones, measured untraced; with -trace 1 a
// separate traced run reports the per-layer ones and validates its
// NDJSON trace with cmd/tracecheck. A failed check exits non-zero and
// names what failed. BENCHMARK.json at the repository root lists the
// workloads and metrics; README.md here documents them.
//
// Usage (perfbench/run.py builds the binaries and passes the two
// build paths):
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1> \
//	          -work-dir <dir> -tracecheck <path>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// config is one run's command line.
type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	workDir    string
	tracecheck string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (result, error){
	"cold-characterize": runCold,
	"warm-serve":        runServe,
	"exec-fluid":        runExec,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold-characterize, warm-serve or exec-fluid")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input of the run is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measure timed rounds for at least this long")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build", "directory for the store file and the NDJSON trace")
	flag.StringVar(&cfg.tracecheck, "tracecheck", "", "cmd/tracecheck binary the traced run validates its trace with")
	flag.Parse()
	cfg.trace = traceFlag == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n",
			cfg.workload, cfg.seconds, traceFlag)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s; workload %s seed %d; one client, probe workers 1\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.workload, cfg.seed)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
		res.Correct = false
	}
	printMetrics(os.Stdout, res)
	line, merr := json.Marshal(res)
	if merr != nil { // a non-finite metric is a benchmark bug
		fmt.Fprintln(os.Stderr, "perfbench: result:", merr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// printMetrics prints one human-readable line per metric, sorted by
// name.
func printMetrics(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
}
