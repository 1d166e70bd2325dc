package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the system. Spans of one request or
// one barrier tick share the parent's id.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, which is how untraced runs call it.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores the span [start, end) under id (0 = allocate one).
func (t *tracer) record(id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations in ms of every span called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceRun is the traced side of a -trace 1 run: spans plus a CPU
// profile of the measured phase.
type traceRun struct {
	*tracer
	profile string
	file    *os.File
}

func startTrace(o options) (*traceRun, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return &traceRun{tracer: newTracer(), profile: filepath.Join(outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", o.workload, o.seed))}, nil
}

// startProfile starts the CPU profile of the measured phase.
func (tr *traceRun) startProfile() error {
	f, err := os.Create(tr.profile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	tr.file = f
	return nil
}

// stopProfile ends the CPU profile; spans may still be recorded after.
func (tr *traceRun) stopProfile() error {
	pprof.StopCPUProfile()
	return tr.file.Close()
}

// finish writes the spans and folds the profile into cpu.<module>_pct.
func (tr *traceRun) finish(o options, res *result) error {
	if err := tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	shares, err := foldProfile(tr.profile)
	if err != nil {
		return fmt.Errorf("fold CPU profile: %w", err)
	}
	for _, m := range cpuModules {
		res.set("cpu."+m+"_pct", "%", shares[m])
	}
	res.set("cpu.other_pct", "%", shares["other"])
	return nil
}

// cpuModules are the layers the CPU profile is folded into; everything
// else lands in "other".
var cpuModules = []string{
	"core", "ci", "oar", "checks", "suites", "sched", "simclock", "monitor",
	"refapi", "faults", "bugs", "federation", "gateway", "status", "intel",
	"admit", "net_http", "encoding_json", "runtime",
}

// moduleOf maps a profiled function name to its module.
func moduleOf(fn string) string {
	pkg, _, _ := strings.Cut(fn, "[") // type arguments may hold other paths
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, m := range cpuModules {
			if m == name {
				return m
			}
		}
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// foldProfile sums self (flat) CPU time by module, as a percentage of all
// samples, from `go tool pprof -top`.
func foldProfile(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		return nil, err
	}
	flat := map[string]float64{}
	total := 0.0
	rows := 0
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[0], "ms") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		flat[moduleOf(f[5])] += v
		total += v
		rows++
	}
	if rows == 0 || total == 0 {
		return nil, fmt.Errorf("no samples in %s", path)
	}
	for m, v := range flat {
		flat[m] = 100 * v / total
	}
	return flat, nil
}
