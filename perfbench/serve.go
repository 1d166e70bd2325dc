package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/simclock"
)

// The two serving workloads drive gateway.ForFederation over a loopback
// net/http listener in this process: scrape against a frozen gateway,
// ops-live while the campaign advances underneath.

const (
	// gatewaySetups is how often a run assembles the gateway, each time
	// from its own sub-seed; setup_s is the median.
	gatewaySetups = 3
	// clients is the population of simulated consumers whose ETag memory
	// makes the conditional requests: one per worker of g5kapi -loadgen,
	// whose default is four.
	clients = 4
	// scrapeRate and opsRate are the open-loop arrival rates (req/s); see
	// README.md for the measurement that set them.
	scrapeRate = 500
	opsRate    = 75
	// opsAdvancePeriod is the wall interval between the ops-live
	// workload's one-hour campaign advances.
	opsAdvancePeriod = 100 * time.Millisecond
)

// siteTopo is what the request mixes need to know about one site.
type siteTopo struct {
	name     string
	clusters []string
	nodes    []string
}

// served is one assembled gateway behind a loopback listener.
type served struct {
	fed  *federation.Federation
	gw   *gateway.Gateway
	base string
	srv  *http.Server
	done chan error

	setup      time.Duration
	preAdvance time.Duration // the one-week pre-advance
	preCPU     time.Duration
	preEvents  uint64    // simclock events fired by the end of the pre-advance
	ticks      []float64 // ms per pre-advance day
	sites      []siteTopo
	mem        *etagMemory // the clients' ETags after the warm-up
}

// close shuts the listener down and waits for Serve to return.
func (s *served) close() error {
	err := s.srv.Shutdown(context.Background())
	if serr := <-s.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// serveGateway builds and starts a federation, mounts the gateway,
// advances one simulated week in one-day ticks, listens on loopback and
// runs one untimed warm-up pass of every request shape of the mix. All
// of it is
// set-up time. wrap, when set, wraps the gateway handler (traced runs).
func serveGateway(seed int64, mix func([]siteTopo) []template, tr *tracer, wrap func(http.Handler) http.Handler) (*served, error) {
	t0 := time.Now()
	fed := federation.New(federation.Config{Seed: seed})
	fed.Start()
	gw := gateway.ForFederation(fed)
	s := &served{fed: fed, gw: gw, done: make(chan error, 1)}
	cpu0 := cpuTime()
	w0 := time.Now()
	for d := 0; d < 7; d++ {
		t := time.Now()
		gw.Advance(simclock.Day)
		e := time.Now()
		tr.record(0, 0, "federation.tick", t, e)
		s.ticks = append(s.ticks, ms(e.Sub(t)))
	}
	s.preAdvance = time.Since(w0)
	s.preCPU = cpuTime() - cpu0
	s.preEvents = countsOf(fed).Events
	for _, name := range fed.Sites() {
		st := siteTopo{name: name}
		for _, sh := range fed.SiteShards(name) {
			st.clusters = append(st.clusters, sh.Cluster)
			for _, n := range sh.F.TB.Clusters()[0].Nodes {
				st.nodes = append(st.nodes, n.Name)
			}
		}
		s.sites = append(s.sites, st)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = gw
	if wrap != nil {
		h = wrap(gw)
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.done <- s.srv.Serve(ln) }()

	// Warm-up: every request shape once, and every client fetches every
	// conditional path once, so the load starts from a steady population
	// of consumers that revalidate what they hold.
	rng := rand.New(rand.NewSource(seed))
	var warm []arrival
	for _, t := range mix(s.sites) {
		warm = append(warm, arrival{op: t.make(rng)})
	}
	for c := 0; c < clients; c++ {
		for _, o := range condPaths(s.sites) {
			warm = append(warm, arrival{client: c, op: o})
		}
	}
	s.mem = newETagMemory(clients)
	if _, err := drive(s.base, warm, s.mem); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	s.setup = time.Since(t0)
	return s, nil
}

// ---- request mixes -----------------------------------------------------------

// gridAtPath is the time-travel view of the grid at the end of simulated
// day d of the pre-advanced week.
func gridAtPath(d int) string { return fmt.Sprintf("/grid/at?t=%d", d*24*3600) }

// condPaths lists every path the mixes read conditionally.
func condPaths(sites []siteTopo) []op {
	out := []op{cond("ref", "/ref/inventory"), cond("ref", "/ref/diff"), cond("intel", "/incidents"), cond("bugs", "/bugs/rollup")}
	for _, st := range sites {
		out = append(out, cond("ref", "/sites/"+st.name+"/ref/inventory"))
	}
	for d := 1; d <= 7; d++ {
		out = append(out, cond("intel", gridAtPath(d)))
	}
	return out
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

func get(family, path string) op {
	return op{family: family, kind: opGet, method: http.MethodGet, path: path}
}

func cond(family, path string) op {
	o := get(family, path)
	o.cond = true
	return o
}

// The request shares copy the repository's own consumer model,
// internal/loadgen/scenarios.go, without importing it: a scenario of
// weight w that sends k requests of one shape per iteration gives that
// shape w·k units (w·k per site, summed over the sites, for the
// site-pinned scenarios). FederatedMix is OperatorDashboard plus one
// SiteScraper and one SiteSubmitter per site; DefaultMix adds the
// federated APIScraper.
const (
	dashboardWeight   = 2 // OperatorDashboard
	siteScraperWeight = 5 // SiteScraper, per site
	siteSubmitWeight  = 2 // SiteSubmitter, per site
	apiScraperWeight  = 5 // APIScraper
	// otherWeight is the share of each surface no loadgen scenario reads
	// on a federated gateway (time travel, incidents, the bug rollup, the
	// merged job list, unanchored submits): one APIScraper request's.
	otherWeight = apiScraperWeight
)

// scrapeMix is the read-only conditional consumer population: every
// SiteScraper request, the federated APIScraper's reads, and the intel,
// tracker and merged job-list views.
func scrapeMix(sites []siteTopo) []template {
	site := func(rng *rand.Rand) siteTopo { return pick(rng, sites) }
	perSite := siteScraperWeight * len(sites)
	return []template{
		// SiteScraper: five requests per iteration.
		{perSite, func(*rand.Rand) op { return get("sites", "/sites") }},
		{perSite, func(rng *rand.Rand) op {
			st := site(rng)
			p := "/sites/" + st.name + "/oar/resources"
			if rng.Intn(2) == 0 {
				p += "?cluster=" + pick(rng, st.clusters)
			}
			return get("oar_read", p)
		}},
		{perSite, func(rng *rand.Rand) op { return cond("ref", "/sites/"+site(rng).name+"/ref/inventory") }},
		{perSite, func(rng *rand.Rand) op {
			st := site(rng)
			from := rng.Intn(6 * 24 * 3600)
			o := get("monitor", fmt.Sprintf("/sites/%s/monitor/metrics?metric=power_w&node=%s&from_sec=%d&to_sec=%d",
				st.name, pick(rng, st.nodes), from, from+30))
			o.kind = opMonitor
			return o
		}},
		{perSite, func(rng *rand.Rand) op { return get("oar_read", "/sites/"+site(rng).name+"/oar/jobs?limit=25") }},
		// APIScraper: four requests per iteration; the federated gateway
		// serves the CI root per site.
		{apiScraperWeight, func(*rand.Rand) op { return cond("ref", "/ref/inventory") }},
		{apiScraperWeight, func(*rand.Rand) op { return cond("ref", "/ref/diff") }},
		{apiScraperWeight, func(*rand.Rand) op { return get("oar_read", "/oar/resources") }},
		{apiScraperWeight, func(rng *rand.Rand) op { return get("ci", "/sites/"+site(rng).name+"/ci/api/json") }},
		// Views the loadgen scenarios do not read.
		{otherWeight, func(rng *rand.Rand) op { return cond("intel", gridAtPath(1+rng.Intn(7))) }},
		{otherWeight, func(*rand.Rand) op { return cond("intel", "/incidents") }},
		{otherWeight, func(*rand.Rand) op { return cond("bugs", "/bugs/rollup") }},
		{otherWeight, func(*rand.Rand) op { return get("oar_read", "/oar/jobs?limit=25") }},
	}
}

// opsMix is the live operations population beside the scrape reads: the
// OperatorDashboard, every SiteSubmitter request, and unanchored submits
// that go through admission.
func opsMix(sites []siteTopo) []template {
	site := func(rng *rand.Rand) siteTopo { return pick(rng, sites) }
	submit := func(kind opKind, path, body string) op {
		return op{family: "oar_submit", kind: kind, method: http.MethodPost, path: path, body: body}
	}
	perSite := siteSubmitWeight * len(sites)
	return []template{
		// OperatorDashboard: four requests per iteration. Its fourth read
		// is the gateway's /metrics in loadgen; here it is /incidents, the
		// federated dashboard's view of open trouble.
		{dashboardWeight, func(*rand.Rand) op { return get("status", "/status/grid") }},
		{dashboardWeight, func(*rand.Rand) op { return get("status", "/status/trend") }},
		{dashboardWeight, func(*rand.Rand) op { return get("bugs", "/bugs?state=open") }},
		{dashboardWeight, func(*rand.Rand) op { return cond("intel", "/incidents") }},
		// SiteSubmitter: two dry runs, one submit and one job listing per
		// iteration.
		{2 * perSite, func(rng *rand.Rand) op {
			st := site(rng)
			return submit(opDryRun, "/sites/"+st.name+"/oar/submit",
				fmt.Sprintf(`{"request":"cluster='%s'/nodes=%d,walltime=0:30:00","dry_run":true}`, pick(rng, st.clusters), 1+rng.Intn(4)))
		}},
		{perSite, func(rng *rand.Rand) op {
			st := site(rng)
			return submit(opSubmit, "/sites/"+st.name+"/oar/submit",
				fmt.Sprintf(`{"request":"cluster='%s'/nodes=1,walltime=0:10:00","user":"bench"}`, pick(rng, st.clusters)))
		}},
		{perSite, func(rng *rand.Rand) op { return get("oar_read", "/sites/"+site(rng).name+"/oar/jobs?limit=10") }},
		{otherWeight, func(*rand.Rand) op {
			return submit(opGridSubmit, "/oar/submit", `{"request":"nodes=1,walltime=0:10:00","user":"bench"}`)
		}},
	}
}

// opsLiveMix is the ops-live workload: opsMix beside the scrape reads.
func opsLiveMix(sites []siteTopo) []template {
	return append(opsMix(sites), scrapeMix(sites)...)
}

// ---- runs --------------------------------------------------------------------

// servingRun is a measured load in segments, one per gateway assembly.
type servingRun struct {
	s        *served   // the last assembly, still alive
	setups   []*served // every assembly, for the set-up figures
	loads    []*load   // one segment per assembly
	advances []float64 // ms per scheduled advance (ops-live)
}

// subSeed derives the seed of a run's k-th campaign (gateway assembly or
// campaign episode), so one run measures several campaigns and one seed's
// quirks do not set its figures. Sub-seed 0 is the seed itself.
func subSeed(seed int64, k int) int64 { return seed + int64(k)<<32 }

// runServing assembles the gateway n times, each from its own sub-seed,
// and drives the mix at rate against each for an equal share of the
// measuring time. Only the last assembly stays alive.
func runServing(o options, n int, rate float64, live bool, mix func([]siteTopo) []template, tr *traceRun) (*servingRun, error) {
	var spans *tracer
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		spans = tr.tracer
		wrap = func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				s := time.Now()
				h.ServeHTTP(w, r)
				spans.record(0, 0, "gateway.serve."+familyOf(r), s, time.Now())
			})
		}
	}
	run := &servingRun{}
	for i := 0; i < n; i++ {
		if run.s != nil {
			if err := run.s.close(); err != nil {
				return nil, err
			}
			retire(run.s.fed)
			// Keep only the set-up figures: the server's handler would
			// keep the retired gateway and its federation on the heap.
			run.s.fed, run.s.gw, run.s.srv = nil, nil, nil
		}
		seed := subSeed(o.seed, i)
		s, err := serveGateway(seed, mix, spans, wrap)
		if err != nil {
			return nil, err
		}
		run.s = s
		run.setups = append(run.setups, s)
		l, err := run.serve(s, seed, o.seconds/time.Duration(n), rate, live, mix, tr)
		if err != nil {
			s.close()
			return nil, err
		}
		run.loads = append(run.loads, l)
	}
	return run, run.s.close()
}

// serve drives one load segment against s. With live set, a background
// goroutine advances the campaign one simulated hour every
// opsAdvancePeriod, a fixed count, so every run reaches the same
// simulated time.
func (run *servingRun) serve(s *served, seed int64, length time.Duration, rate float64, live bool, mix func([]siteTopo) []template, tr *traceRun) (*load, error) {
	var spans *tracer
	if tr != nil {
		spans = tr.tracer
	}
	sched := schedule(rand.New(rand.NewSource(seed)), rate, length, clients, mix(s.sites))
	// Collect the set-up garbage now rather than inside the measured load.
	runtime.GC()
	if tr != nil {
		if err := tr.startProfile(); err != nil {
			return nil, err
		}
	}
	var wg sync.WaitGroup
	count := 0
	if live {
		count = int(length / opsAdvancePeriod)
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			for i := 0; i < count; i++ {
				if d := time.Until(start.Add(time.Duration(i) * opsAdvancePeriod)); d > 0 {
					time.Sleep(d)
				}
				t := time.Now()
				s.gw.Advance(simclock.Hour)
				e := time.Now()
				spans.record(0, 0, "federation.advance", t, e)
				run.advances = append(run.advances, ms(e.Sub(t)))
			}
		}()
	}
	l, err := drive(s.base, sched, s.mem)
	wg.Wait()
	if tr != nil {
		if perr := tr.stopProfile(); err == nil {
			err = perr
		}
	}
	if err != nil {
		return nil, err
	}
	if err := l.checkBacklog(); err != nil {
		return nil, err
	}
	if want := simclock.Week + simclock.Time(count)*simclock.Hour; s.fed.Now() != want {
		return nil, checkf("campaign reached %v, want %v", s.fed.Now(), want)
	}
	return l, nil
}

// servingFigures are the end-to-end numbers of a serving run.
type servingFigures struct {
	attempted, failed     int
	p50, p99, cpuPerReqUS float64
}

// minArrivals is the fewest arrivals a run's percentiles may rest on: ten
// samples beyond p99.
const minArrivals = 1000

// figures computes the end-to-end numbers of a run's load segments. The
// percentiles pool every arrival of the run; a failed request misses any
// latency limit and is charged the whole run length, so each one moves
// p99 up by a rank.
func figures(o options, loads []*load) (servingFigures, error) {
	var f servingFigures
	var lat []float64
	var cpu time.Duration
	for _, l := range loads {
		cpu += l.cpu
		for _, s := range l.samples {
			if s.failed {
				f.failed++
				lat = append(lat, ms(o.seconds))
				continue
			}
			lat = append(lat, ms(s.latency))
		}
	}
	f.attempted = len(lat)
	if f.attempted < minArrivals {
		return f, fmt.Errorf("%d arrivals, fewer than the %d a p99 needs: run longer", f.attempted, minArrivals)
	}
	f.p50, f.p99 = quantile(lat, 0.50), quantile(lat, 0.99)
	if done := f.attempted - f.failed; done > 0 {
		f.cpuPerReqUS = float64(cpu.Microseconds()) / float64(done)
	}
	return f, nil
}

func runScrape(o options) (*result, error) {
	return runGatewayWorkload(o, scrapeRate, false, scrapeMix)
}

func runOpsLive(o options) (*result, error) { return runGatewayWorkload(o, opsRate, true, opsLiveMix) }

func runGatewayWorkload(o options, rate float64, live bool, mix func([]siteTopo) []template) (*result, error) {
	setups := gatewaySetups
	if o.trace {
		setups = 1 // the untraced side only gives the tracing overhead its base
	}
	run, err := runServing(o, setups, rate, live, mix, nil)
	if err != nil {
		return nil, err
	}
	f, err := figures(o, run.loads)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		res := &result{attempted: f.attempted, failed: f.failed}
		var setup []float64
		var days float64
		var pre, preCPU time.Duration
		for _, s := range run.setups {
			setup = append(setup, s.setup.Seconds())
			days += 7
			pre += s.preAdvance
			preCPU += s.preCPU
		}
		res.set("setup_s", "s", median(setup))
		dps := days / pre.Seconds()
		if live {
			// The campaign's pace while it serves: one simulated hour per
			// scheduled advance, over the median advance's wall time.
			dps = 1 / (24 * median(run.advances) / 1e3)
		}
		res.set("sim_days_per_s", "day/s", dps)
		res.set("cpu_s_per_sim_day", "s/day", preCPU.Seconds()/days)
		res.set("p50_ms", "ms", f.p50)
		res.set("p99_ms", "ms", f.p99)
		res.set("cpu_us_per_req", "us", f.cpuPerReqUS)
		res.set("heap_mb", "MB", liveHeapMB())
		runtime.KeepAlive(run.s)
		return res, nil
	}
	retire(run.s.fed)
	run = nil

	tr, err := startTrace(o)
	if err != nil {
		return nil, err
	}
	trun, err := runServing(o, 1, rate, live, mix, tr)
	if err != nil {
		return nil, err
	}
	tf, err := figures(o, trun.loads)
	if err != nil {
		return nil, err
	}
	res := &result{attempted: tf.attempted, failed: tf.failed}
	bySvc := map[string][]float64{}
	var lags []float64
	conds, notMod := 0, 0
	for _, s := range trun.loads[0].samples {
		bySvc[s.family] = append(bySvc[s.family], ms(s.service))
		lags = append(lags, ms(s.lag))
		if s.cond {
			conds++
		}
		if s.notModify {
			notMod++
		}
	}
	for _, fam := range families {
		if d := bySvc[fam]; len(d) > 0 {
			res.set("gateway."+fam+".p50_ms", "ms", quantile(d, 0.5))
			res.set("gateway."+fam+".p99_ms", "ms", quantile(d, 0.99))
		}
	}
	if conds > 0 {
		res.set("gateway.not_modified_pct", "%", 100*float64(notMod)/float64(conds))
	}
	ls := trun.s.gw.AdvanceLockStats()
	res.set("gateway.advance_lock_avg_ms", "ms", ls.AvgMicros/1e3)
	res.set("gateway.advance_lock_max_ms", "ms", ls.MaxMicros/1e3)
	st := trun.s.gw.Admission().Stats()
	res.set("admit.placed", "count", float64(st.Placed))
	res.set("admit.queued", "count", float64(st.Queued))
	res.set("admit.shed", "count", float64(st.Shed)) // each shed is a failed request too
	res.set("loadgen.lag_p99_ms", "ms", quantile(lags, 0.99))
	res.set("federation.tick_ms_p50", "ms", quantile(trun.s.ticks, 0.5))
	res.set("federation.tick_ms_max", "ms", maxOf(trun.s.ticks))
	if live {
		res.set("federation.advance_ms_p50", "ms", quantile(trun.advances, 0.5))
		res.set("federation.advance_ms_max", "ms", maxOf(trun.advances))
	}
	fed := trun.s.fed
	m0 := time.Now()
	fed.Summary()
	fed.WeeklyReport()
	res.set("federation.merge_ms", "ms", ms(time.Since(m0)))
	c := countsOf(fed)
	setCounts(res, c)
	res.set("simclock.ns_per_event", "ns", float64(trun.s.preCPU.Nanoseconds())/float64(trun.s.preEvents))
	if err := probeLayers(fed, tr.tracer, res); err != nil {
		return nil, err
	}
	res.set("bench.trace_overhead_pct", "%", 100*(tf.cpuPerReqUS/f.cpuPerReqUS-1))
	if err := tr.finish(o, res); err != nil {
		return nil, err
	}
	res.notMeasured = notMeasured(res)
	return res, nil
}

// familyOf names the request family of a gateway path.
func familyOf(r *http.Request) string {
	p := r.URL.Path
	if rest, ok := strings.CutPrefix(p, "/sites/"); ok {
		_, sub, _ := strings.Cut(rest, "/")
		p = "/" + sub
	}
	switch {
	case p == "/sites" || p == "/":
		return "sites"
	case p == "/oar/submit":
		return "oar_submit"
	case strings.HasPrefix(p, "/oar/"):
		return "oar_read"
	case strings.HasPrefix(p, "/ref/"):
		return "ref"
	case strings.HasPrefix(p, "/grid/") || p == "/incidents":
		return "intel"
	case strings.HasPrefix(p, "/status/"):
		return "status"
	case strings.HasPrefix(p, "/bugs"):
		return "bugs"
	case strings.HasPrefix(p, "/ci/"):
		return "ci"
	case strings.HasPrefix(p, "/monitor/"):
		return "monitor"
	}
	return "other"
}
