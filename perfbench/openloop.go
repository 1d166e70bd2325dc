package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
)

// The benchmark's own open-loop load generator. Arrivals are computed up
// front from the seed, so a run's offered load does not depend on how
// fast the system answers: a stall delays later requests instead of
// thinning them. Latency counts from each arrival's due time, and the
// generator reports how late it dispatched. At most nproc workers send,
// each over its own single keep-alive connection, and per-worker samples
// merge into one report at the end.

// opKind selects the response check of a request.
type opKind int

const (
	opGet        opKind = iota // 200 JSON (or 304 for a conditional GET)
	opMonitor                  // 200 JSON, or 502 from a flaky kwapi by design
	opDryRun                   // 200 with can_start_now
	opSubmit                   // 201 with the job
	opGridSubmit               // admission: 201 placed or 202 queued; 429 shed fails
)

// op is one concrete request of the schedule.
type op struct {
	family string
	kind   opKind
	method string
	path   string
	body   string
	cond   bool // send If-None-Match with the client's last ETag for path
}

// arrival is one scheduled request: due is its offset from the start of
// the load, client the simulated consumer whose ETag memory it uses.
type arrival struct {
	due    time.Duration
	client int
	op     op
}

// schedule draws rate·length arrivals with jittered spacing (each gap
// uniform in [0.5, 1.5] of the mean). The mix is stratified: each
// template gets its exact share of the arrivals (largest remainder), in
// seeded random order, so every run offers the same composition and only
// the order and the request parameters vary with the seed.
func schedule(rng *rand.Rand, rate float64, length time.Duration, clients int, mix []template) []arrival {
	gap := float64(time.Second) / rate
	var dues []time.Duration
	for at := gap * rng.Float64(); at < float64(length); at += gap * (0.5 + rng.Float64()) {
		dues = append(dues, time.Duration(at))
	}
	total := 0
	for _, t := range mix {
		total += t.weight
	}
	picks := make([]int, 0, len(dues))
	rest := make([]int, len(mix)) // remainder numerators
	for i, t := range mix {
		n := len(dues) * t.weight / total
		rest[i] = len(dues) * t.weight % total
		for ; n > 0; n-- {
			picks = append(picks, i)
		}
	}
	for len(picks) < len(dues) {
		best := 0
		for i := range rest {
			if rest[i] > rest[best] {
				best = i
			}
		}
		picks = append(picks, best)
		rest[best] = -1
	}
	rng.Shuffle(len(picks), func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	out := make([]arrival, len(dues))
	for i, due := range dues {
		out[i] = arrival{due: due, client: rng.Intn(clients), op: mix[picks[i]].make(rng)}
	}
	return out
}

// template is one weighted request shape of a workload's mix.
type template struct {
	weight int
	make   func(rng *rand.Rand) op
}

// etagMemory is the fixed population of simulated clients: client →
// path → last ETag seen.
type etagMemory struct {
	mu   sync.Mutex
	tags []map[string]string
}

func newETagMemory(clients int) *etagMemory {
	m := &etagMemory{tags: make([]map[string]string, clients)}
	for i := range m.tags {
		m.tags[i] = map[string]string{}
	}
	return m
}

func (m *etagMemory) get(client int, path string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tags[client][path]
}

func (m *etagMemory) put(client int, path, tag string) {
	m.mu.Lock()
	m.tags[client][path] = tag
	m.mu.Unlock()
}

// sample is one request's outcome.
type sample struct {
	index     int // position in the schedule
	family    string
	latency   time.Duration // from due to response read
	service   time.Duration // from send to response read
	lag       time.Duration // from due to send
	failed    bool          // transport error, 429 or unexpected 5xx
	cond      bool          // carried If-None-Match
	notModify bool          // answered 304
}

// load is a finished open-loop run.
type load struct {
	samples []sample
	wall    time.Duration // first due to last response
	cpu     time.Duration // process CPU over the same span
}

// maxEndLag bounds how late the last tenth of arrivals may be dispatched
// (median). Later than that, the backlog grew: the offered rate is past
// what the host serves, and the run's latencies mean nothing.
const maxEndLag = 250 * time.Millisecond

// drive sends the schedule against base and checks every response. The
// first failed output check aborts the run.
func drive(base string, sched []arrival, mem *etagMemory) (*load, error) {
	workers := runtime.NumCPU()
	var next atomic.Int64
	var firstErr error
	var errOnce sync.Once
	var failedCheck atomic.Bool
	perWorker := make([][]sample, workers)
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	cpu0 := cpuTime()
	for w := 0; w < workers; w++ {
		client := &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer client.CloseIdleConnections()
			out := make([]sample, 0, len(sched)/workers+1)
			for !failedCheck.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					break
				}
				a := sched[i]
				due := start.Add(a.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				s, err := send(client, base, i, a, due, mem)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					failedCheck.Store(true)
					break
				}
				out = append(out, s)
			}
			perWorker[w] = out
		}(w)
	}
	wg.Wait()
	l := &load{wall: time.Since(start), cpu: cpuTime() - cpu0}
	if firstErr != nil {
		return nil, firstErr
	}
	for _, out := range perWorker {
		l.samples = append(l.samples, out...)
	}
	sort.Slice(l.samples, func(i, j int) bool { return l.samples[i].index < l.samples[j].index })
	if len(l.samples) != len(sched) {
		return nil, fmt.Errorf("sent %d of %d requests", len(l.samples), len(sched))
	}
	return l, nil
}

// checkBacklog fails a load whose backlog grew: the median dispatch lag
// of the last tenth of the schedule exceeds maxEndLag.
func (l *load) checkBacklog() error {
	if end := endLag(l.samples); end > maxEndLag {
		return fmt.Errorf("backlog grew: the last tenth of arrivals was dispatched %v late (median)", end)
	}
	return nil
}

// endLag is the median dispatch lag of the last tenth of the schedule.
func endLag(samples []sample) time.Duration {
	cut := len(samples) * 9 / 10
	var lags []float64
	for _, s := range samples {
		if s.index >= cut {
			lags = append(lags, float64(s.lag))
		}
	}
	return time.Duration(median(lags))
}

// send performs one request and checks its response.
func send(client *http.Client, base string, index int, a arrival, due time.Time, mem *etagMemory) (sample, error) {
	s := sample{index: index, family: a.op.family}
	var body io.Reader
	if a.op.body != "" {
		body = strings.NewReader(a.op.body)
	}
	req, err := http.NewRequest(a.op.method, base+a.op.path, body)
	if err != nil {
		return s, err
	}
	var sentTag string
	if a.op.cond {
		if sentTag = mem.get(a.client, a.op.path); sentTag != "" {
			req.Header.Set("If-None-Match", sentTag)
			s.cond = true
		}
	}
	if a.op.body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	sent := time.Now()
	s.lag = sent.Sub(due)
	resp, err := client.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	s.latency, s.service = done.Sub(due), done.Sub(sent)
	if err != nil {
		s.failed = true // transport error: counted, not a wrong output
		return s, nil
	}
	code := resp.StatusCode
	switch {
	case code == http.StatusTooManyRequests:
		s.failed = true
		return s, nil
	case code == http.StatusBadGateway && a.op.kind == opMonitor:
		return s, nil // the site's kwapi is flaky: data, not failure
	case code >= 500:
		s.failed = true
		return s, nil
	case code == http.StatusNotModified:
		if sentTag == "" || resp.Header.Get("ETag") != sentTag {
			return s, checkf("%s %s: 304 for If-None-Match %q, ETag %q", a.op.method, a.op.path, sentTag, resp.Header.Get("ETag"))
		}
		s.notModify = true
		return s, nil
	}
	if err := checkBody(a.op, code, data); err != nil {
		return s, err
	}
	if a.op.cond {
		if tag := resp.Header.Get("ETag"); tag != "" {
			mem.put(a.client, a.op.path, tag)
		}
	}
	return s, nil
}

// checkBody checks a non-failed response's status and JSON body.
func checkBody(o op, code int, data []byte) error {
	want := []int{http.StatusOK}
	switch o.kind {
	case opSubmit:
		want = []int{http.StatusCreated}
	case opGridSubmit:
		want = []int{http.StatusCreated, http.StatusAccepted}
	}
	ok := false
	for _, c := range want {
		ok = ok || code == c
	}
	if !ok {
		return checkf("%s %s: status %d, want %v: %s", o.method, o.path, code, want, bytes.TrimSpace(data))
	}
	switch o.kind {
	case opDryRun, opSubmit, opGridSubmit:
		var r gateway.SubmitResponse
		if err := json.Unmarshal(data, &r); err != nil {
			return checkf("%s %s: body does not decode: %v", o.method, o.path, err)
		}
		switch {
		case o.kind == opDryRun && r.CanStartNow == nil:
			return checkf("%s %s: dry run without can_start_now", o.method, o.path)
		case o.kind == opSubmit && r.Job == nil:
			return checkf("%s %s: submit without a job", o.method, o.path)
		case o.kind == opGridSubmit && r.Admission != "placed" && r.Admission != "queued":
			return checkf("%s %s: admission %q", o.method, o.path, r.Admission)
		}
	default:
		if !json.Valid(data) {
			return checkf("%s %s: body is not JSON: %.80q", o.method, o.path, data)
		}
	}
	return nil
}
