package gateway

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/inproc"
	"repro/internal/simclock"
)

var etagMatchCases = []struct {
	header, etag string
	want         bool
}{
	{"", `"v1"`, false},
	{"*", `"v1"`, true},
	{" * ", `"v1"`, true},
	{`"v1"`, `"v1"`, true},
	{`"v2"`, `"v1"`, false},
	{`v1`, `"v1"`, false},
	{`W/"v1"`, `"v1"`, true},
	{`W/"v2"`, `"v1"`, false},
	{`"v0", "v1"`, `"v1"`, true},
	{`"v0","v2"`, `"v1"`, false},
	{` "v0" ,	W/"v1" `, `"v1"`, true},
	{",", `"v1"`, false},
	{`"v1.2|down:a+b"`, `"v1.2|down:a+b"`, true},
	{`"v1.2"`, `"v1.2|down:a+b"`, false},
	{`"v1.2|down:a+b"`, `"v1.2"`, false},
	{`"v1.2|down:a"`, `"v1.2|down:a+b"`, false},
	{`"sv3.1|down:a+b", "ga1.1|down:a+b"`, `"ga1.1|down:a+b"`, true},
}

func TestETagMatches(t *testing.T) {
	for _, tc := range etagMatchCases {
		if got := etagMatches(tc.header, tc.etag); got != tc.want {
			t.Errorf("etagMatches(%q, %q) = %v, want %v", tc.header, tc.etag, got, tc.want)
		}
	}
}

// FuzzETagMatches: any header is safe to compare, and an ETag of the form
// the gateway emits — a quoted opaque tag without commas, which the list
// split would cut — always matches itself, its weak form and a list that
// carries it.
func FuzzETagMatches(f *testing.F) {
	for _, tc := range etagMatchCases {
		f.Add(tc.header, strings.Trim(tc.etag, `"`))
	}
	f.Fuzz(func(t *testing.T, header, opaque string) {
		etag := `"` + opaque + `"`
		etagMatches(header, etag)
		for _, c := range opaque {
			if c < 0x21 || c == '"' || c == ',' || c > 0x7e {
				return
			}
		}
		for _, h := range []string{etag, "W/" + etag, header + ", " + etag} {
			if !etagMatches(h, etag) {
				t.Fatalf("etagMatches(%q, %q) = false", h, etag)
			}
		}
	})
}

// TestBodyCacheCounters: /metrics reports each body-cache family once it
// has served a full read — a cold read is a miss, a repeat read a hit, and
// a conditional read never reaches the cache at all.
func TestBodyCacheCounters(t *testing.T) {
	_, gw := newCampaign(t, 41, 0, simclock.Hour)
	c := inproc.Client(gw)
	if bc := gw.Metrics().BodyCaches; bc != nil {
		t.Fatalf("idle gateway reports body caches %v", bc)
	}
	resp, _ := get(t, c, "/ref/inventory")
	if got := gw.Metrics().BodyCaches["shard_inventory"]; got != (BodyCacheMetrics{Misses: 1}) {
		t.Fatalf("after a cold read: %+v, want one miss", got)
	}
	get(t, c, "/ref/inventory")
	if got := gw.Metrics().BodyCaches["shard_inventory"]; got != (BodyCacheMetrics{Hits: 1, Misses: 1}) {
		t.Fatalf("after a repeat read: %+v, want one hit, one miss", got)
	}
	if cond := getConditional(t, c, "/ref/inventory", resp.Header.Get("ETag")); cond.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional read = %d, want 304", cond.StatusCode)
	}
	_, body := get(t, c, "/metrics")
	m := decode[MetricsReport](t, body)
	if got := m.BodyCaches["shard_inventory"]; got != (BodyCacheMetrics{Hits: 1, Misses: 1}) {
		t.Fatalf("/metrics body_caches = %+v, want the 304 to leave one hit, one miss", m.BodyCaches)
	}
}
