package main

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/simclock"
)

// campaignWeeks is the length of one campaign episode. Two whole weeks
// make the weekly env-matrix job fire and run a fixed number of times.
const campaignWeeks = 2

// campaignSeeds is how many campaigns a run cycles through: episode k
// runs sub-seed k mod campaignSeeds, so one seed's quirks do not set the
// run's figures, and episode k must repeat episode k−campaignSeeds.
const campaignSeeds = 3

// campaignCounts is the work one episode did, summed over micro-shards.
// For one seed every episode must produce the same counts.
type campaignCounts struct {
	Events      uint64
	MaxQueue    int
	Builds      int
	NodeChecks  int
	BugsFiled   int
	BugsFixed   int
	OARJobs     int
	RefVersions int
}

func countsOf(fed *federation.Federation) campaignCounts {
	var c campaignCounts
	for _, sh := range fed.Shards() {
		f := sh.F
		c.Events += f.Clock.Fired()
		if q := f.Clock.MaxQueueLen(); q > c.MaxQueue {
			c.MaxQueue = q
		}
		c.Builds += f.CI.TotalBuilds()
		c.NodeChecks += f.Checker.Runs()
		st := f.Bugs.Stats()
		c.BugsFiled += st.Filed
		c.BugsFixed += st.Fixed
		submitted, _, _ := f.OAR.Stats()
		c.OARJobs += submitted
		c.RefVersions += f.Ref.VersionCount()
	}
	return c
}

// episode is one fresh federation advanced campaignWeeks in one-day
// barrier ticks.
type episode struct {
	setup   time.Duration       // federation.New + Start
	advance time.Duration       // wall time of all ticks
	cpu     time.Duration       // process CPU over the ticks
	ticks   []float64           // ms per one-day tick
	steps   map[stepKey]float64 // ms per micro-shard day step
	merge   time.Duration       // Summary + WeeklyReport
	counts  campaignCounts
	summary federation.Summary
	fed     *federation.Federation
}

// runEpisode builds, starts and advances campaign c's federation at
// Workers: 0 (GOMAXPROCS), timing every micro-shard step through the
// public step gate. With a tracer, every tick and every step is a span.
func runEpisode(seed int64, c int, tr *tracer) (*episode, error) {
	ep := &episode{}
	t0 := time.Now()
	fed := federation.New(federation.Config{Seed: seed})
	fed.Start()
	ep.setup = time.Since(t0)

	var tick atomic.Int64
	var day atomic.Int32
	var mu sync.Mutex
	measuring := true // false once the ticks are done (see retire)
	ep.steps = map[stepKey]float64{}
	fed.SetStepGate(func(site, cluster string, step func()) {
		s := time.Now()
		step()
		e := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if measuring {
			tr.record(0, tick.Load(), "federation.step", s, e)
			ep.steps[stepKey{c, int(day.Load()), site, cluster}] += ms(e.Sub(s))
		}
	})
	cpu0 := cpuTime()
	w0 := time.Now()
	for d := 0; d < 7*campaignWeeks; d++ {
		id := tr.newID()
		tick.Store(id)
		day.Store(int32(d))
		s := time.Now()
		fed.Advance(simclock.Day)
		e := time.Now()
		tr.record(id, 0, "federation.tick", s, e)
		ep.ticks = append(ep.ticks, ms(e.Sub(s)))
	}
	ep.advance = time.Since(w0)
	ep.cpu = cpuTime() - cpu0
	mu.Lock()
	measuring = false
	mu.Unlock()

	m0 := time.Now()
	ep.summary = fed.Summary()
	weekly := fed.WeeklyReport()
	ep.merge = time.Since(m0)
	tr.record(0, 0, "federation.merge", m0, m0.Add(ep.merge))
	ep.counts = countsOf(fed)
	ep.fed = fed
	return ep, checkCampaign(ep, weekly)
}

// checkCampaign verifies one episode's outputs: it did work, it reached
// the planned simulated time, and the merged weekly report is the merge
// of the per-site reports.
func checkCampaign(ep *episode, weekly []core.WeekCounts) error {
	c := ep.counts
	if c.Events == 0 || c.Builds == 0 || c.BugsFiled == 0 {
		return checkf("campaign did no work: %+v", c)
	}
	if want := simclock.Time(campaignWeeks) * simclock.Week; ep.summary.Merged.Duration != want {
		return checkf("campaign reached %v, want %v", ep.summary.Merged.Duration, want)
	}
	var perSite [][]core.WeekCounts
	for _, site := range ep.fed.Sites() {
		var shards [][]core.WeekCounts
		for _, sh := range ep.fed.SiteShards(site) {
			shards = append(shards, sh.F.WeeklyReport())
		}
		perSite = append(perSite, federation.MergeWeekly(shards...))
	}
	if merged := federation.MergeWeekly(perSite...); !reflect.DeepEqual(weekly, merged) {
		return checkf("WeeklyReport %v != MergeWeekly of the per-site reports %v", weekly, merged)
	}
	if len(weekly) == 0 {
		return checkf("empty weekly report")
	}
	return nil
}

// runEpisodes repeats episodes for the measuring time (at least one),
// cycling through the run's campaigns, and checks that every repeat of a
// campaign produced the same result. Only the last episode's federation
// stays alive.
func runEpisodes(o options, tr *tracer) ([]*episode, error) {
	var eps []*episode
	start := time.Now()
	for {
		k := len(eps)
		ep, err := runEpisode(subSeed(o.seed, k%campaignSeeds), k%campaignSeeds, tr)
		if err != nil {
			return nil, err
		}
		if k >= campaignSeeds {
			prev := eps[k-campaignSeeds]
			if ep.counts != prev.counts || !reflect.DeepEqual(ep.summary, prev.summary) {
				return nil, checkf("episode %d of seed %d differs from episode %d: %+v vs %+v",
					k, o.seed, k-campaignSeeds, ep.counts, prev.counts)
			}
		}
		eps = append(eps, ep)
		if time.Since(start) >= o.seconds {
			return eps, nil
		}
		retire(ep.fed)
		ep.fed = nil
	}
}

// retire drains every CI server of a finished federation, so the
// executor goroutines parked in in-flight builds exit and the federation
// can be collected; otherwise each retired campaign would stay on the
// heap and add to every later garbage collection. The builds in flight
// finish first, which takes about a simulated hour.
func retire(fed *federation.Federation) {
	drained := func() bool {
		for _, sh := range fed.Shards() {
			if !sh.F.CI.Drained() {
				return false
			}
		}
		return true
	}
	for _, sh := range fed.Shards() {
		sh.F.CI.Drain()
	}
	for i := 0; i < 48 && !drained(); i++ {
		fed.Advance(simclock.Hour)
	}
}

// stepKey names one micro-shard's step through one simulated day of one
// of the run's campaigns.
type stepKey struct {
	campaign, day int
	site, cluster string
}

// campaignRates are the end-to-end figures of a set of episodes. The
// campaign's requests are micro-shard day steps: one cluster's share of
// one simulated day, the unit the barrier workers pull.
type campaignRates struct {
	setupS, daysPerS, cpuPerDay, p50, p99, cpuPerStepUS float64
	steps                                               int
}

func rates(eps []*episode) campaignRates {
	var setup, dps, cpd, cps []float64
	r := campaignRates{}
	for _, ep := range eps {
		days := float64(len(ep.ticks))
		setup = append(setup, ep.setup.Seconds())
		dps = append(dps, days/ep.advance.Seconds())
		cpd = append(cpd, ep.cpu.Seconds()/days)
		cps = append(cps, float64(ep.cpu.Microseconds())/float64(len(ep.steps)))
		r.steps += len(ep.steps)
	}
	// A campaign's repeats run the same steps; a step's time is the median
	// of its repeats, so one noisy episode does not set the tail.
	reps := map[stepKey][]float64{}
	for _, ep := range eps {
		for k, t := range ep.steps {
			reps[k] = append(reps[k], t)
		}
	}
	var steps []float64
	for _, ts := range reps {
		steps = append(steps, median(ts))
	}
	r.setupS, r.daysPerS, r.cpuPerDay, r.cpuPerStepUS = median(setup), median(dps), median(cpd), median(cps)
	r.p50, r.p99 = quantile(steps, 0.50), quantile(steps, 0.99)
	return r
}

// runCampaign is the campaign workload: host time per simulated day of
// the federated engine, no HTTP.
func runCampaign(o options) (*result, error) {
	eps, err := runEpisodes(o, nil)
	if err != nil {
		return nil, err
	}
	r := rates(eps)
	res := &result{attempted: r.steps}
	if !o.trace {
		res.set("setup_s", "s", r.setupS)
		res.set("sim_days_per_s", "day/s", r.daysPerS)
		res.set("cpu_s_per_sim_day", "s/day", r.cpuPerDay)
		res.set("p50_ms", "ms", r.p50)
		res.set("p99_ms", "ms", r.p99)
		res.set("cpu_us_per_req", "us", r.cpuPerStepUS)
		res.set("heap_mb", "MB", liveHeapMB())
		runtime.KeepAlive(eps[len(eps)-1].fed)
		return res, nil
	}
	retire(eps[len(eps)-1].fed)
	eps = nil

	tr, err := startTrace(o)
	if err == nil {
		err = tr.startProfile()
	}
	if err != nil {
		return nil, err
	}
	teps, err := runEpisodes(o, tr.tracer)
	if perr := tr.stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	tracedRates := rates(teps)
	res = &result{attempted: tracedRates.steps}
	ticks := tr.durations("federation.tick")
	steps := tr.durations("federation.step")
	last := teps[len(teps)-1]
	res.set("federation.tick_ms_p50", "ms", quantile(ticks, 0.5))
	res.set("federation.tick_ms_max", "ms", maxOf(ticks))
	res.set("federation.shard_step_ms_p50", "ms", quantile(steps, 0.5))
	res.set("federation.shard_step_ms_max", "ms", maxOf(steps))
	res.set("federation.worker_idle_pct", "%", 100*(1-sum(steps)/(float64(last.fed.Workers())*sum(ticks))))
	var merges, nsPerEvent []float64
	for _, ep := range teps {
		merges = append(merges, ms(ep.merge))
		nsPerEvent = append(nsPerEvent, float64(ep.cpu.Nanoseconds())/float64(ep.counts.Events))
	}
	res.set("federation.merge_ms", "ms", median(merges))
	setCounts(res, teps[0].counts) // campaign 0 runs the seed itself
	res.set("simclock.ns_per_event", "ns", median(nsPerEvent))
	if err := probeLayers(last.fed, tr.tracer, res); err != nil {
		return nil, err
	}
	res.set("bench.trace_overhead_pct", "%", 100*(r.daysPerS/tracedRates.daysPerS-1))
	if err := tr.finish(o, res); err != nil {
		return nil, err
	}
	res.notMeasured = notMeasured(res)
	return res, nil
}

// setCounts reports the per-layer work counts of a campaign state.
func setCounts(res *result, c campaignCounts) {
	res.set("simclock.events", "count", float64(c.Events))
	res.set("simclock.max_queue", "count", float64(c.MaxQueue))
	res.set("ci.builds", "count", float64(c.Builds))
	res.set("checks.node_checks", "count", float64(c.NodeChecks))
	res.set("bugs.filed", "count", float64(c.BugsFiled))
	res.set("bugs.fixed", "count", float64(c.BugsFixed))
	res.set("oar.jobs", "count", float64(c.OARJobs))
	res.set("refapi.versions", "count", float64(c.RefVersions))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
