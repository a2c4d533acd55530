// Command perfbench is the serving benchmark of the SAPLA similarity-search
// service. It starts the service in-process on a loopback listener, loads
// it with seeded random-walk series through the HTTP batch-ingest path, and
// drives one named workload over real HTTP, checking every answer against
// a brute-force copy of the data. The last line of standard output is one
// JSON object with the run's metrics.
//
//	perfbench --workload knn_point --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it reports per-layer metrics instead: counters read from
// the service under the same load, and spans recorded around the exported
// function of each layer while replaying the workload's seeded operations.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: knn_point, knn_batch or ingest_mixed")
	seed := flag.Uint64("seed", 1, "seed of the generated series, queries and operations")
	seconds := flag.Int("seconds", 20, "seconds of measured load")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q: %v)\n", *name, err)
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(context.Background(), options{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// options is one invocation's settings.
type options struct {
	w       workload
	seed    uint64
	seconds int
	trace   bool
	scale   float64 // fraction of the workload's stored series; 0 keeps them all
	workDir string  // parent of the run's scratch directory; default .bench_build
}

// run executes one benchmark run.
func run(ctx context.Context, o options) (*result, error) {
	if o.scale > 0 && o.scale < 1 {
		o.w.preload = max(64, int(float64(o.w.preload)*o.scale))
	}
	parent := o.workDir
	if parent == "" {
		parent = ".bench_build"
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(parent, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	runFor := time.Duration(o.seconds) * time.Second
	b := newBench(o.w, o.seed, runFor, workDir)
	b.trace = o.trace
	if o.trace {
		return b.traced(ctx, filepath.Join(parent, "spans-"+o.w.name+".json"))
	}
	return b.untraced(ctx)
}

// heapMB returns the live heap after a forced collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
