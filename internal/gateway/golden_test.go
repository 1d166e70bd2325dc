package gateway

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/inproc"
	"repro/internal/intel"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// goldenPath pins the wire form of every versioned (ETag/304) route. It is
// generated once and must not change with refactors of the serving code;
// to regenerate after an intended wire change, delete the file and run
// TestVersionedGolden, which writes it and fails asking for review.
const goldenPath = "testdata/versioned.golden"

// goldenSpec is a three-site micro-sharded layout: luxembourg trimmed to
// one cluster (a single-store site, so its scoped routes keep bare
// ?version=/?at= semantics), nantes with two and lyon with four cluster
// shards (joined site views).
func goldenSpec() []testbed.ClusterSpec {
	var out []testbed.ClusterSpec
	for _, cs := range fedSpec("luxembourg", "nantes", "lyon") {
		if cs.Site == "luxembourg" && cs.Name != "granduc" {
			continue
		}
		out = append(out, cs)
	}
	return out
}

// versionedPaths lists every versioned route of the federation — healthy
// answers plus the 400/404 parameter errors — with each site's scoped
// /ref views bare, per cluster, per version, per instant and per range.
func versionedPaths(fed *federation.Federation) []string {
	paths := []string{
		"/ref/inventory",
		"/ref/diff",
		"/ref/inventory?version=1",
		"/ref/diff?from=1&to=2",
		"/grid/at?t=0",
		"/grid/at?t=302400",
		"/grid/at?t=604800",
		"/grid/at",
		"/grid/at?t=nope",
		"/grid/diff?from=0&to=604800",
		"/grid/diff?from=302400&to=604800",
		"/grid/diff?from=5",
		"/grid/diff?from=9&to=1",
		"/incidents",
		"/incidents?state=all",
		"/incidents?at=302400",
		"/incidents?state=all&at=302400",
		"/incidents?state=bogus",
		"/incidents?at=-1",
		"/bugs/rollup",
		"/bugs/rollup?state=all",
		"/bugs/rollup?state=bogus",
		"/reliability/trend",
		"/sites/atlantis/ref/inventory",
	}
	for _, site := range fed.Sites() {
		cl := fed.SiteShards(site)[0].Cluster
		inv, diff := "/sites/"+site+"/ref/inventory", "/sites/"+site+"/ref/diff"
		paths = append(paths,
			inv,
			inv+"?version=1",
			inv+"?at=302400",
			inv+"?cluster="+cl,
			inv+"?cluster="+cl+"&version=1",
			inv+"?cluster="+cl+"&version=2",
			inv+"?cluster="+cl+"&at=302400",
			inv+"?cluster="+cl+"&at=0",
			inv+"?cluster=nope",
			inv+"?cluster="+cl+"&version=99999",
			inv+"?cluster="+cl+"&version=bogus",
			inv+"?cluster="+cl+"&at=-5",
			inv+"?cluster="+cl+"&version=1&at=5",
			diff,
			diff+"?from=1&to=2",
			diff+"?cluster="+cl,
			diff+"?cluster="+cl+"&from=1&to=2",
			diff+"?cluster="+cl+"&from=1",
			diff+"?cluster="+cl+"&to=2",
			diff+"?cluster="+cl+"&from=3&to=1",
			diff+"?cluster="+cl+"&to=99999",
			diff+"?cluster="+cl+"&from=bogus",
		)
	}
	return paths
}

// goldenGet issues one GET, conditional when etag is non-empty.
func goldenGet(t *testing.T, c *http.Client, path, etag string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://gw.local"+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp, body
}

// goldenRecord requests each path and renders one line per answer:
// status, the caching headers and the body digest. Every 200 is read a
// second time (the cached body must equal the rendered one) and replayed
// with If-None-Match, which must answer an empty 304 carrying the same
// validators.
func goldenRecord(t *testing.T, c *http.Client, scenario string, paths []string, out *strings.Builder) {
	t.Helper()
	for _, p := range paths {
		resp, body := goldenGet(t, c, p, "")
		h := resp.Header
		fmt.Fprintf(out, "%s %s %d etag=%q cc=%q ra=%q ct=%q sha256=%x\n", scenario, p, resp.StatusCode,
			h.Get("ETag"), h.Get("Cache-Control"), h.Get("Retry-After"), h.Get("Content-Type"), sha256.Sum256(body))
		if resp.StatusCode != http.StatusOK {
			continue
		}
		etag := h.Get("ETag")
		if etag == "" {
			t.Errorf("%s %s: 200 without an ETag", scenario, p)
			continue
		}
		if _, again := goldenGet(t, c, p, ""); !bytes.Equal(again, body) {
			t.Errorf("%s %s: repeated read differs from the first", scenario, p)
		}
		cond, condBody := goldenGet(t, c, p, etag)
		if cond.StatusCode != http.StatusNotModified || len(condBody) != 0 {
			t.Errorf("%s %s: conditional replay = %d with %d body bytes, want an empty 304",
				scenario, p, cond.StatusCode, len(condBody))
		}
		if got := cond.Header.Get("ETag"); got != etag {
			t.Errorf("%s %s: 304 ETag %q, want %q", scenario, p, got, etag)
		}
		if got, want := cond.Header.Get("Cache-Control"), h.Get("Cache-Control"); got != want {
			t.Errorf("%s %s: 304 Cache-Control %q, want %q", scenario, p, got, want)
		}
	}
}

// TestVersionedGolden pins the wire form of every versioned route of a
// fixed-seed micro-sharded federation, one week in — healthy, with one
// site down and with one site partitioned — against testdata.
func TestVersionedGolden(t *testing.T) {
	fed := federation.New(federation.Config{
		Seed: 13,
		Spec: goldenSpec(),
		Configure: func(site string, seed int64) core.Config {
			cfg := core.DefaultConfig()
			cfg.InitialFaults = 4
			cfg.EnvMatrixPeriod = 0
			return cfg
		},
	})
	fed.Start()
	gw := ForFederation(fed)
	gw.Advance(simclock.Week)
	// A week of this campaign archives no new description, so move two
	// cluster stores on by hand: luxembourg's to v2 and lyon's first to v3,
	// giving the routes archived versions (Cache-Control) and real diffs.
	for site, updates := range map[string]int{"luxembourg": 1, "lyon": 2} {
		f := fed.SiteShards(site)[0].F
		for u := 0; u < updates; u++ {
			n := f.TB.Nodes()[u]
			inv := n.Inv.Clone()
			inv.RAMGB += 8
			if err := f.Ref.Update(fed.Now(), n.Name, inv); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := inproc.Client(gw)
	paths := versionedPaths(fed)

	var out strings.Builder
	goldenRecord(t, c, "no-trend", []string{"/reliability/trend"}, &out)
	gw.SetReliabilityTrend(&intel.Trend{
		Seeds: 2, BaseSeed: 7, Weeks: 1,
		Points:     []intel.TrendPoint{{Week: 1, Rate: intel.Band{Mean: 88, Std: 1.5, Min: 86.5, Max: 89.5, N: 2}}},
		FirstWeek:  intel.Band{Mean: 88, Std: 1.5, Min: 86.5, Max: 89.5, N: 2},
		FinalWeeks: intel.Band{Mean: 88, Std: 1.5, Min: 86.5, Max: 89.5, N: 2},
		BugsFiled:  intel.Band{Mean: 6, Std: 1, Min: 5, Max: 7, N: 2},
		BugsFixed:  intel.Band{Mean: 4, Std: 1, Min: 3, Max: 5, N: 2},
		BugsOpen:   intel.Band{Mean: 2, N: 2},
	})
	goldenRecord(t, c, "healthy", paths, &out)

	for _, sc := range []struct {
		name string
		kind faults.GridKind
		site string
	}{
		{"down:lyon", faults.SiteOutage, "lyon"},
		{"partitioned:nantes", faults.WANPartition, "nantes"},
	} {
		ev, err := fed.InjectGrid(sc.kind, []string{sc.site}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		goldenRecord(t, c, sc.name, paths, &out)
		if _, err := fed.HealGrid(ev.ID); err != nil {
			t.Fatal(err)
		}
	}

	got := out.String()
	want, err := os.ReadFile(goldenPath)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s (%d lines); review and commit it", goldenPath, strings.Count(got, "\n"))
	}
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %s\n want %s", goldenPath, i+1, g, w)
		}
	}
}
