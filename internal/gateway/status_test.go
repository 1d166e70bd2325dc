package gateway

import (
	"net/http"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ci"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/inproc"
	"repro/internal/simclock"
	"repro/internal/status"
)

// referenceGrid merges per-shard grids read over each CI server's REST API
// (the external status page's path) into the wire form /status/grid serves.
func referenceGrid(t *testing.T, cis []*ci.Server) GridJSON {
	t.Helper()
	merged := &status.Grid{Cells: map[string]map[string]status.CellStatus{}}
	for _, srv := range cis {
		grid, err := status.NewLocalClient(srv.Handler()).BuildGrid()
		if err != nil {
			t.Fatal(err)
		}
		for fam, row := range grid.Cells {
			m := merged.Cells[fam]
			if m == nil {
				m = map[string]status.CellStatus{}
				merged.Cells[fam] = m
			}
			for tgt, st := range row {
				if prev, ok := m[tgt]; !ok || st.AtSec > prev.AtSec {
					m[tgt] = st
				}
			}
		}
	}
	out := GridJSON{Cells: map[string]map[string]GridCellJSON{}}
	tgtSet := map[string]bool{}
	for fam, row := range merged.Cells {
		merged.Families = append(merged.Families, fam)
		m := map[string]GridCellJSON{}
		for tgt, st := range row {
			tgtSet[tgt] = true
			m[tgt] = GridCellJSON{Result: st.Result, Build: st.Build, AtSec: st.AtSec}
		}
		out.Cells[fam] = m
	}
	for tgt := range tgtSet {
		merged.Targets = append(merged.Targets, tgt)
	}
	sort.Strings(merged.Families)
	sort.Strings(merged.Targets)
	out.Families, out.Targets = merged.Families, merged.Targets
	out.OKRatePct = 100 * merged.OKRate()
	return out
}

// referenceTrend folds every shard's builds, read over the REST API, into
// one trend series.
func referenceTrend(t *testing.T, cis []*ci.Server, bucketSec float64) []status.TrendPoint {
	t.Helper()
	var builds []ci.BuildJSON
	for _, srv := range cis {
		part, err := status.NewLocalClient(srv.Handler()).AllBuilds()
		if err != nil {
			t.Fatal(err)
		}
		builds = append(builds, part...)
	}
	return status.Trend(builds, bucketSec)
}

// checkStatusViews asserts that the gateway's /status views, read from CI
// state directly, equal the REST-path reference over the CI servers cis,
// and that the degraded marker names exactly downSites.
func checkStatusViews(t *testing.T, c *http.Client, cis []*ci.Server, downSites []string) {
	t.Helper()
	checkMarker := func(path string, d *DegradedJSON) {
		t.Helper()
		switch {
		case len(downSites) == 0 && d != nil:
			t.Fatalf("%s: healthy view carries a degraded marker: %+v", path, d)
		case len(downSites) > 0 && (d == nil || !reflect.DeepEqual(d.DownSites, downSites)):
			t.Fatalf("%s: degraded marker = %+v, want down sites %v", path, d, downSites)
		}
	}

	resp, body := get(t, c, "/status/grid")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/status/grid status = %d: %s", resp.StatusCode, body)
	}
	grid := decode[GridJSON](t, body)
	checkMarker("/status/grid", grid.Degraded)
	grid.Degraded = nil
	want := referenceGrid(t, cis)
	if len(want.Targets) == 0 {
		t.Fatal("reference grid is empty")
	}
	if !reflect.DeepEqual(grid, want) {
		t.Fatalf("/status/grid differs from the REST reference:\n got %+v\nwant %+v", grid, want)
	}

	for _, tc := range []struct {
		path   string
		bucket float64
	}{{"/status/trend", 86400}, {"/status/trend?bucket_sec=3600", 3600}} {
		resp, body := get(t, c, tc.path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d: %s", tc.path, resp.StatusCode, body)
		}
		tr := decode[TrendJSON](t, body)
		checkMarker(tc.path, tr.Degraded)
		want := referenceTrend(t, cis, tc.bucket)
		if len(want) == 0 {
			t.Fatalf("%s: reference trend is empty", tc.path)
		}
		if tr.BucketSec != tc.bucket || !reflect.DeepEqual(tr.Points, want) {
			t.Fatalf("%s differs from the REST reference:\n got %v %+v\nwant %v %+v", tc.path, tr.BucketSec, tr.Points, tc.bucket, want)
		}
	}
}

// TestStatusViewsMatchRESTReference pins the gateway's direct CI read to
// the REST path the external status page uses: on a federated gateway
// after a week (environments matrix included), healthy and with one site
// down, /status/grid and /status/trend equal a merge of per-shard
// status.Client reads.
func TestStatusViewsMatchRESTReference(t *testing.T) {
	fed := federation.New(federation.Config{
		Seed: 12,
		Spec: fedSpec("luxembourg", "nantes", "lyon"),
		Configure: func(site string, seed int64) core.Config {
			cfg := core.DefaultConfig()
			cfg.InitialFaults = 4
			return cfg
		},
	})
	fed.Start()
	gw := ForFederation(fed)
	gw.Advance(simclock.Week)
	c := inproc.Client(gw)

	siteCIs := func(keep func(site string) bool) []*ci.Server {
		var out []*ci.Server
		for _, sh := range fed.Shards() {
			if keep(sh.Site) {
				out = append(out, sh.F.CI)
			}
		}
		return out
	}
	all := siteCIs(func(string) bool { return true })
	if _, ok := referenceGrid(t, all).Cells["environments"]; !ok {
		t.Fatal("no environments matrix row: the matrix path is not exercised")
	}
	checkStatusViews(t, c, all, nil)

	if _, err := fed.InjectGrid(faults.SiteOutage, []string{"lyon"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	checkStatusViews(t, c, siteCIs(func(site string) bool { return site != "lyon" }), []string{"lyon"})
	// The lost site's shards are absent: none of their targets survive.
	resp, body := get(t, c, "/status/grid")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded /status/grid status = %d", resp.StatusCode)
	}
	served := map[string]bool{}
	for _, tgt := range decode[GridJSON](t, body).Targets {
		served[tgt] = true
	}
	lyon := siteCIs(func(site string) bool { return site == "lyon" })
	lost := referenceGrid(t, lyon).Targets
	if len(lost) == 0 {
		t.Fatal("lyon's shards have no grid targets")
	}
	for _, tgt := range lost {
		if served[tgt] {
			t.Fatalf("degraded grid still serves lyon target %q", tgt)
		}
	}
}

// TestStatusViewsMatchRESTReferenceMonolithic is the same pin on the
// monolithic layout: one shard whose CI spans every site, after a week
// with the full environments matrix.
func TestStatusViewsMatchRESTReferenceMonolithic(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Seed = 12
	cfg.InitialFaults = 5
	f := core.New(cfg)
	f.Start()
	f.RunFor(simclock.Week)
	checkStatusViews(t, inproc.Client(ForFramework(f)), []*ci.Server{f.CI}, nil)
}
