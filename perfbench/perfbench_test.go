package main

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/simclock"
)

// A short advance at two workers must be bit-identical to a serial one:
// the campaign workload measures parallel stepping, so it must not change
// what is computed.
func TestTwoWorkersMatchOneWorker(t *testing.T) {
	type outcome struct {
		summary federation.Summary
		counts  campaignCounts
		weekly  any
	}
	run := func(workers int) outcome {
		fed := federation.New(federation.Config{Seed: 7, Workers: workers})
		fed.Start()
		for d := 0; d < 2; d++ {
			fed.Advance(simclock.Day)
		}
		return outcome{fed.Summary(), countsOf(fed), fed.WeeklyReport()}
	}
	serial, parallel := run(1), run(2)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Workers: 2 differs from Workers: 1:\n%+v\n%+v", parallel, serial)
	}
	if serial.counts.Events == 0 {
		t.Fatal("the advance fired no events")
	}
}

// BENCHMARK.json and the code must name the same per-layer metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var got []metricName
	for _, m := range spec.PerLayer {
		got = append(got, metricName{m.Name, m.Unit})
	}
	if want := perLayer(); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nin code:\n%v", got, want)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	sites := []siteTopo{{name: "a", clusters: []string{"a1"}, nodes: []string{"a1-1.a"}}}
	mk := func(seed int64) []arrival {
		return schedule(rand.New(rand.NewSource(seed)), 100, 2*time.Second, clients, opsLiveMix(sites))
	}
	a, b := mk(1), mk(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, mk(2)) {
		t.Fatal("different seeds, same schedule")
	}
	if n := len(a); n < 150 || n > 250 {
		t.Fatalf("%d arrivals in 2 s at 100/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due <= a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/oar.(*Server).allocateWithPreemption": "oar",
		"repro/internal/testbed.(*Testbed).NodeState":         "other",
		"net/http.(*conn).serve":                              "net_http",
		"encoding/json.checkValid":                            "encoding_json",
		"encoding/json.appendString[go.shape.string]":         "encoding_json",
		"sort.Slice[repro/internal/oar.Job]":                  "other",
		"runtime.scanobject":                                  "runtime",
		"internal/runtime/maps.(*Iter).Next":                  "runtime",
		"main.send":                                           "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFamilyOf(t *testing.T) {
	for path, want := range map[string]string{
		"/sites":                           "sites",
		"/sites/nancy/oar/resources":       "oar_read",
		"/sites/nancy/oar/submit":          "oar_submit",
		"/ref/inventory":                   "ref",
		"/grid/at?t=1":                     "intel",
		"/incidents":                       "intel",
		"/status/grid":                     "status",
		"/bugs/rollup":                     "bugs",
		"/sites/nancy/ci/api/json":         "ci",
		"/sites/nancy/monitor/metrics?x=1": "monitor",
	} {
		if got := familyOf(httptest.NewRequest("GET", path, nil)); got != want {
			t.Errorf("familyOf(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := quantile(xs, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// Percentiles pool every segment of a run, a failed request is charged
// the whole run and moves p99, and a run too short for a p99 fails.
func TestFiguresPooled(t *testing.T) {
	seg := func(n int, failAt int) *load {
		l := &load{cpu: time.Duration(n) * time.Millisecond}
		for i := 0; i < n; i++ {
			l.samples = append(l.samples, sample{index: i, latency: time.Duration(i%100+1) * time.Millisecond, failed: i == failAt})
		}
		return l
	}
	o := options{seconds: 25 * time.Second}
	clean, err := figures(o, []*load{seg(2500, -1), seg(1000, -1)})
	if err != nil {
		t.Fatal(err)
	}
	if clean.p50 != 50 || clean.p99 != 99 {
		t.Errorf("p50 %v, p99 %v ms, want 50 and 99", clean.p50, clean.p99)
	}
	if want := 1000.0; clean.cpuPerReqUS != want {
		t.Errorf("cpu per request = %v us, want %v", clean.cpuPerReqUS, want)
	}
	// Thirty-five 100 ms samples sit beyond p99; one failure in the
	// second segment replaces a 1 ms sample and lifts p99 to 100 ms.
	f, err := figures(o, []*load{seg(2500, -1), seg(1000, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if f.attempted != 3500 || f.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3500 and 1", f.attempted, f.failed)
	}
	if f.p99 != 100 {
		t.Errorf("p99 with one failure = %v ms, want 100", f.p99)
	}
	if _, err := figures(o, []*load{seg(minArrivals-1, -1)}); err == nil {
		t.Error("a run with fewer than minArrivals arrivals gave figures")
	}
}
