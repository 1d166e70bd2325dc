package main

import (
	"fmt"
	"time"

	"repro/internal/federation"
	"repro/internal/intel"
	"repro/internal/status"
)

// families are the gateway request families the per-layer latency is
// split by.
var families = []string{"sites", "oar_read", "oar_submit", "ref", "intel", "status", "bugs", "ci", "monitor"}

// perLayer lists every per-layer metric a traced run reports, in the
// order of BENCHMARK.json. A workload without the layer reports 0 and
// names the metric on its "not measured" line.
func perLayer() []metricName {
	out := []metricName{
		{"federation.tick_ms_p50", "ms"},
		{"federation.tick_ms_max", "ms"},
		{"federation.shard_step_ms_p50", "ms"},
		{"federation.shard_step_ms_max", "ms"},
		{"federation.worker_idle_pct", "%"},
		{"federation.merge_ms", "ms"},
		{"federation.advance_ms_p50", "ms"},
		{"federation.advance_ms_max", "ms"},
		{"simclock.events", "count"},
		{"simclock.ns_per_event", "ns"},
		{"simclock.max_queue", "count"},
		{"ci.builds", "count"},
		{"checks.node_checks", "count"},
		{"bugs.filed", "count"},
		{"bugs.fixed", "count"},
		{"oar.jobs", "count"},
		{"refapi.versions", "count"},
	}
	for _, f := range families {
		out = append(out, metricName{"gateway." + f + ".p50_ms", "ms"}, metricName{"gateway." + f + ".p99_ms", "ms"})
	}
	out = append(out,
		metricName{"gateway.not_modified_pct", "%"},
		metricName{"gateway.advance_lock_avg_ms", "ms"},
		metricName{"gateway.advance_lock_max_ms", "ms"},
		metricName{"admit.placed", "count"},
		metricName{"admit.queued", "count"},
		metricName{"admit.shed", "count"},
		metricName{"status.build_grid_ms", "ms"},
		metricName{"status.all_builds_ms", "ms"},
		metricName{"ci.api_root_ms", "ms"},
		metricName{"refapi.materialize_ms", "ms"},
		metricName{"intel.grid_at_ms", "ms"},
		metricName{"oar.resources_ms", "ms"},
		metricName{"oar.can_start_us", "us"},
	)
	for _, m := range cpuModules {
		out = append(out, metricName{"cpu." + m + "_pct", "%"})
	}
	return append(out,
		metricName{"cpu.other_pct", "%"},
		metricName{"loadgen.lag_p99_ms", "ms"},
		metricName{"bench.trace_overhead_pct", "%"},
	)
}

type metricName struct{ name, unit string }

// notMeasured reports every per-layer metric the run did not set as 0
// and returns their names.
func notMeasured(res *result) []string {
	var out []string
	for _, m := range perLayer() {
		if _, ok := res.metrics[m.name]; !ok {
			res.set(m.name, m.unit, 0)
			out = append(out, m.name)
		}
	}
	return out
}

// probeReps is how often each end-state probe repeats; the median is
// reported.
const probeReps = 3

// probe times fn probeReps times as spans called name and returns the
// median in ms.
func probe(tr *tracer, name string, fn func() error) (float64, error) {
	var d []float64
	for i := 0; i < probeReps; i++ {
		s := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		e := time.Now()
		tr.record(0, 0, name, s, e)
		d = append(d, ms(e.Sub(s)))
	}
	return median(d), nil
}

// probeLayers times each layer's public functions at the end state of a
// run, with nothing else running. Sweeps cover every micro-shard, the
// way one federated request does; per-call probes are the median call.
func probeLayers(fed *federation.Federation, tr *tracer, res *result) error {
	shards := fed.Shards()
	clients := make([]*status.Client, len(shards))
	var arcs []intel.SiteArchive
	for i, sh := range shards {
		clients[i] = status.NewLocalClient(sh.F.CI.Handler())
		arcs = append(arcs, intel.SiteArchive{Site: sh.Site, Cluster: sh.Cluster, Ref: sh.F.Ref})
	}
	sweep := func(fn func(i int) error) func() error {
		return func() error {
			for i := range shards {
				if err := fn(i); err != nil {
					return err
				}
			}
			return nil
		}
	}
	perCall := func(total float64) float64 { return total / float64(len(shards)) }

	v, err := probe(tr, "probe.status.build_grid", sweep(func(i int) error { _, err := clients[i].BuildGrid(); return err }))
	if err != nil {
		return err
	}
	res.set("status.build_grid_ms", "ms", v)
	if v, err = probe(tr, "probe.status.all_builds", sweep(func(i int) error { _, err := clients[i].AllBuilds(); return err })); err != nil {
		return err
	}
	res.set("status.all_builds_ms", "ms", v)
	if v, err = probe(tr, "probe.ci.api_root", sweep(func(i int) error { _, err := clients[i].Root(); return err })); err != nil {
		return err
	}
	res.set("ci.api_root_ms", "ms", perCall(v))

	// Materialize is cached per version, so only the first pass is cold:
	// time one pass over every shard's middle version.
	s := time.Now()
	for _, sh := range shards {
		if sh.F.Ref.Materialize((sh.F.Ref.VersionCount()+1)/2) == nil {
			return fmt.Errorf("probe refapi.materialize: no version in %s/%s", sh.Site, sh.Cluster)
		}
	}
	tr.record(0, 0, "probe.refapi.materialize", s, time.Now())
	res.set("refapi.materialize_ms", "ms", perCall(ms(time.Since(s))))

	archive := intel.NewGridArchive(arcs)
	mid := fed.Now() / 2
	if v, err = probe(tr, "probe.intel.grid_at", func() error {
		if snap := archive.At(mid, nil); len(snap.Sites) == 0 {
			return fmt.Errorf("empty grid at %v", mid)
		}
		return nil
	}); err != nil {
		return err
	}
	res.set("intel.grid_at_ms", "ms", v)
	if v, err = probe(tr, "probe.oar.resources", sweep(func(i int) error {
		if len(shards[i].F.OAR.Resources("")) == 0 {
			return fmt.Errorf("no resources in %s", shards[i].Cluster)
		}
		return nil
	})); err != nil {
		return err
	}
	res.set("oar.resources_ms", "ms", v)
	if v, err = probe(tr, "probe.oar.can_start", sweep(func(i int) error {
		_, err := shards[i].F.OAR.CanStartNow(fmt.Sprintf("cluster='%s'/nodes=1,walltime=0:30:00", shards[i].Cluster))
		return err
	})); err != nil {
		return err
	}
	res.set("oar.can_start_us", "us", 1000*perCall(v))
	return nil
}
