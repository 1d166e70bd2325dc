// Command perfbench is the repository's benchmark: one program that runs a
// workload against the real system, checks its outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones (see BENCHMARK.json);
// with -trace 1 the same workload runs untraced and then traced, and the
// metrics are the per-layer breakdown. A failed output check exits 1
// without printing a result. Run it through run.sh, which builds this
// package from source first:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 25 --trace 0
//
// README.md in this directory explains the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports. attempted and failed count
// the workload's operations: requests on the gateway workloads, one-day
// barrier ticks on campaign.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	// notMeasured names per-layer metrics the workload has no layer for;
	// they are reported as 0 and listed on a comment line.
	notMeasured []string
}

func (r *result) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// checkf reports a failed output check: the run stops and reports no
// numbers.
func checkf(format string, args ...any) error {
	return fmt.Errorf("output check failed: "+format, args...)
}

// options are the command-line arguments every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// outDir holds the spans and CPU profiles of traced runs.
const outDir = ".bench_build/perfbench"

var workloads = map[string]func(options) (*result, error){
	"campaign": runCampaign,
	"scrape":   runScrape,
	"ops-live": runOpsLive,
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "campaign, scrape or ops-live")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&seconds, "seconds", 25, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 = report the per-layer metrics of a traced run")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload campaign|scrape|ops-live --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	host, _ := json.Marshal(hostShape(o))
	fmt.Printf("# host %s\n", host)
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s seed %d: %v\n", o.workload, o.seed, err)
		os.Exit(1)
	}
	printResult(res)
}

// hostShape records where and on what a result was measured, printed
// with every run so a number is never read without its machine.
func hostShape(o options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds.Seconds(),
		"trace":      o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func printResult(res *result) {
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.metrics[name]
		fmt.Printf("# %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if len(res.notMeasured) > 0 {
		fmt.Printf("# not measured on this workload (reported as 0): %s\n", strings.Join(res.notMeasured, " "))
	}
	line, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// quantile returns the q-quantile (nearest rank) of xs, sorting xs in
// place; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
