package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"raxmlcell/internal/obs"
	"raxmlcell/internal/wallclock"
)

// TestAnalyzeLiveMetrics is the -debug-addr smoke test: while an analysis
// runs with a registry attached, the debug server's /metrics and
// /debug/pprof/ endpoints must answer, and after the run the snapshot must
// agree with the Analysis — supervision counters and the merged kernel
// meter.
func TestAnalyzeLiveMetrics(t *testing.T) {
	pat, _ := testPatterns(t, 8, 300, 7)
	reg := obs.NewRegistry()
	srv, addr, err := obs.StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Poll the endpoints from a goroutine racing the analysis, so the
	// "during a live run" property is actually exercised.
	stop := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/debug/pprof/"} {
				resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
				if err != nil {
					polled <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					polled <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
			}
		}
	}()

	cfg := fastConfig()
	cfg.Inferences, cfg.Bootstraps = 2, 3
	cfg.Log = obs.Discard()
	cfg.Metrics = reg
	a, err := Analyze(pat, cfg)
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	if perr := <-polled; perr != nil {
		t.Fatalf("debug endpoint failed during the run: %v", perr)
	}

	// The final /metrics payload must agree with the finished analysis.
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if v, _ := snap.CounterValue("mw.jobs_done"); v != uint64(len(a.Results)) {
		t.Errorf("mw.jobs_done = %d, want %d", v, len(a.Results))
	}
	if v, _ := snap.CounterValue("kernel.newview_calls"); v != a.Meter.NewviewCalls {
		t.Errorf("kernel.newview_calls = %d, Analysis.Meter says %d", v, a.Meter.NewviewCalls)
	}
	// Every search of the campaign adds its vector-store hits to the one
	// counter, so it totals the merged meter.
	if v, _ := snap.CounterValue("cache.shared_hits"); v != a.Meter.SharedHits || v == 0 {
		t.Errorf("cache.shared_hits = %d, Analysis.Meter says %d", v, a.Meter.SharedHits)
	}
	// The gauge tracks the best over all jobs (bootstraps included), so it
	// is at least the best inference the analysis reports.
	if v, ok := snap.GaugeValue("mw.best_logl"); !ok || v < a.BestLogL || v >= 0 {
		t.Errorf("mw.best_logl = %v (%v), Analysis best inference %v", v, ok, a.BestLogL)
	}
	if v, _ := snap.CounterValue("search.progress_events"); v == 0 {
		t.Error("no search progress events reached the registry")
	}
}

// TestAnalysisMeterMatchesResults pins the satellite fix: Analysis.Meter is
// the supervisor's merged meter and equals the per-result sum.
func TestAnalysisMeterMatchesResults(t *testing.T) {
	pat, _ := testPatterns(t, 8, 300, 7)
	cfg := fastConfig()
	cfg.Inferences, cfg.Bootstraps = 1, 2
	a, err := Analyze(pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var nv, flops uint64
	for _, r := range a.Results {
		if r.Err == nil {
			nv += r.Meter.NewviewCalls
			flops += r.Meter.Flops()
		}
	}
	if nv == 0 {
		t.Fatal("results carry empty meters")
	}
	if a.Meter.NewviewCalls != nv || a.Meter.Flops() != flops {
		t.Fatalf("Analysis.Meter (newview %d, flops %d) != summed results (newview %d, flops %d)",
			a.Meter.NewviewCalls, a.Meter.Flops(), nv, flops)
	}
}

// TestAnalyzeWallTraceEndToEnd is the full-pipeline trace acceptance test:
// Analyze with an explicit recording tracer, a registry, and a flight
// recorder must leave (1) a timeline that renders to valid Chrome trace
// JSON with campaign/attempt/round spans attributed to jobs, (2) non-empty
// kernel.<backend>.<op>_ms and search.round_ms latency histograms, and
// (3) a flight stream bracketed by campaign.start / campaign.end.
func TestAnalyzeWallTraceEndToEnd(t *testing.T) {
	pat, _ := testPatterns(t, 8, 300, 7)
	now := wallclock.Monotonic()
	tracer := obs.NewSpanTracer(now)
	flight := obs.NewFlightRecorder(0, now)
	reg := obs.NewRegistry()

	cfg := fastConfig()
	cfg.Inferences, cfg.Bootstraps = 2, 3
	cfg.Log = obs.Discard()
	cfg.Metrics = reg
	cfg.Trace = tracer.Root("campaign")
	cfg.Flight = flight
	a, err := Analyze(pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best == nil {
		t.Fatal("analysis produced no best tree")
	}

	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateTrace on the real pipeline's timeline: %v", err)
	}
	if n == 0 {
		t.Fatal("pipeline recorded an empty timeline")
	}
	trace := buf.String()
	for _, frag := range []string{
		`"name":"campaign"`, `"name":"attempt"`, `"name":"round"`,
		`"name":"smooth"`, `"job":"inference#0"`, `"job":"bootstrap#2"`,
	} {
		if !strings.Contains(trace, frag) {
			t.Errorf("pipeline trace missing %s", frag)
		}
	}
	if d := tracer.Dropped(); d != 0 {
		t.Errorf("tracer dropped %d events on a small campaign", d)
	}

	snap := reg.Snapshot()
	counts := map[string]uint64{}
	for _, h := range snap.Histograms {
		counts[h.Name] = h.Count
	}
	backend := cfg.Kernel.BackendName()
	for _, name := range []string{
		"kernel." + backend + ".newview_ms",
		"search.round_ms",
		"mw.attempt_ms",
	} {
		if counts[name] == 0 {
			t.Errorf("histogram %s empty after a full analysis (%v)", name, counts)
		}
	}

	kinds := map[string]int{}
	for _, ev := range flight.Snapshot() {
		kinds[ev.Kind]++
	}
	if kinds["campaign.start"] != 1 || kinds["campaign.end"] != 1 {
		t.Fatalf("flight stream not bracketed: %v", kinds)
	}
	if kinds["attempt"] == 0 {
		t.Fatalf("flight stream has no attempt events: %v", kinds)
	}
}
