package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"raxmlcell/internal/obs"
)

func near(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %.12g, want %.12g", what, got, want)
	}
}

// kernelSnap is a registry snapshot whose kernel histograms sum to the given
// busy seconds per op, spread over two calls each.
func kernelSnap(newview, makenewz, evaluate float64) obs.Snapshot {
	reg := obs.NewRegistry()
	for op, s := range map[string]float64{"newview": newview, "makenewz": makenewz, "evaluate": evaluate} {
		h := reg.Histogram("kernel.scalar."+op+"_ms", obs.MsBuckets)
		h.Observe(s * 1000 / 2)
		h.Observe(s * 1000 / 2)
	}
	reg.Counter("search.candidates_scored").Add(400)
	reg.Gauge("search.pool_busy_peak").Set(2)
	return reg.Snapshot()
}

// serialSpans is a two-worker campaign with one search worker each: worker-0
// runs two jobs with a half-second supervision gap between them, worker-1
// one job that ends a second before the campaign does.
func serialSpans() []span {
	return []span{
		{spanAnalyze, "bench", 0, 10},
		{spanCampaign, "campaign", 1, 9},
		{spanAttempt, "worker-0", 1, 5},
		{spanSmooth, "worker-0", 1.5, 2},
		{spanRound, "worker-0", 2, 4.5},
		{"candidates", "worker-0", 2.1, 3},
		{spanAttempt, "worker-0", 5.5, 9},
		{spanSmooth, "worker-0", 6, 7},
		{spanRound, "worker-0", 7, 8.5},
		{spanAttempt, "worker-1", 1, 8},
		{spanAlphaOpt, "worker-1", 1.2, 2.2},
		{spanRound, "worker-1", 2.2, 7.7},
		{spanCheckpoint, "checkpoint", 5.1, 5.2},
	}
}

func TestSelfTimes(t *testing.T) {
	spans := serialSpans()
	self := selfTimes(spans)
	want := map[int]float64{
		2:  4 - 0.5 - 2.5, // attempt minus smooth and round; candidates is a grandchild
		4:  2.5 - 0.9,     // round minus candidates
		6:  3.5 - 1 - 1.5,
		9:  7 - 1 - 5.5,
		0:  10, // the bench track holds nothing else
		12: 0.1,
	}
	for i, w := range want {
		near(t, spans[i].Name+"@"+spans[i].Track, self[i], w)
	}
}

func TestSelfTimesToleratesTruncatedChildEnd(t *testing.T) {
	// A child whose end reads one microsecond past its parent's is still
	// its child; a span that starts where another ends is not.
	spans := []span{
		{"a", "w", 0, 1},
		{"b", "w", 0.5, 1.000001},
		{"c", "w", 1, 2},
	}
	self := selfTimes(spans)
	near(t, "a", self[0], 0.499999)
	near(t, "c", self[2], 1)
}

func TestReconcileSerial(t *testing.T) {
	ct, err := summarize(serialSpans(), 2)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "search", ct.Search, 0.5+1+1+2.5+1.5+5.5)
	near(t, "attempt self", ct.AttemptSelf, 1+1+0.5)
	near(t, "edge idle", ct.EdgeIdle, 1) // worker-1's tail
	if ct.Rounds != 3 || len(ct.Attempts) != 3 || ct.Checkpoints != 1 {
		t.Fatalf("rounds/attempts/checkpoints = %d/%d/%d, want 3/3/1", ct.Rounds, len(ct.Attempts), ct.Checkpoints)
	}
	k := kernelTimesOf(kernelSnap(7, 2, 1))
	near(t, "kernel busy", k.busy(), 10)
	r := reconcile(ct, k.busy(), 2, 1)
	near(t, "capacity", r.Capacity, 20)
	near(t, "search self", r.Search, 12-10)
	near(t, "job setup", r.JobSetup, 2.5)
	near(t, "idle", r.Idle, 1)
	near(t, "core", r.Core, 2*(10-8))
	// What is left is exactly worker-0's gap between its two attempts.
	near(t, "unattributed", r.Unattributed, 0.5)
}

func TestReconcilePooled(t *testing.T) {
	spans := []span{
		{spanAnalyze, "bench", 0, 10},
		{spanCampaign, "campaign", 0.5, 9.5},
		{spanAttempt, "worker-0", 0.5, 9},
		{spanSmooth, "worker-0", 1, 2},
		{spanAlphaOpt, "worker-0", 2, 3},
		{spanRound, "worker-0", 3, 8.5},
	}
	ct, err := summarize(spans, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Two pool workers kept kernels busy for 12 s inside 7.5 s of search.
	k := kernelTimesOf(kernelSnap(9, 2, 1))
	r := reconcile(ct, k.busy(), 1, 2)
	near(t, "capacity", r.Capacity, 20)
	near(t, "search self", r.Search, 2*7.5-12)
	near(t, "job setup", r.JobSetup, 2*1)
	near(t, "idle", r.Idle, 2*0.5)
	near(t, "core", r.Core, 2*1)
	near(t, "unattributed", r.Unattributed, 0)

	m := map[string]float64{}
	for _, x := range layerMetrics(layerInputs{Workers: 1, SearchWorkers: 2, Jobs: 1, Times: ct, Kernels: k}) {
		m[x.Name] = x.Value
	}
	near(t, "pool.parallelism", m["pool.parallelism"], 12/7.5)
	near(t, "pool.efficiency", m["pool.efficiency"], 12/7.5/2)
	near(t, "likelihood.split_newview_pct", m["likelihood.split_newview_pct"], 75)
	near(t, "mw.idle_frac", m["mw.idle_frac"], 1-8.5/9)
	near(t, "core.unattributed_s", m["core.unattributed_s"], 0)
}

func TestSummarizeRejectsIncompleteTrace(t *testing.T) {
	if _, err := summarize([]span{{spanCampaign, "campaign", 0, 1}}, 1); err == nil {
		t.Error("trace without the analyze span accepted")
	}
	spans := append(serialSpans(), span{spanAttempt, "worker-2", 1, 2})
	if _, err := summarize(spans, 2); err == nil {
		t.Error("attempts on more tracks than workers accepted")
	}
}

// TestParseTraceRoundTrip records spans through the program's own tracer
// and reads them back from its Chrome trace.
func TestParseTraceRoundTrip(t *testing.T) {
	var now time.Duration
	tr := obs.NewSpanTracer(func() time.Duration { return now })
	root := tr.Root(spanCampaign)
	sp := root.Start(spanCampaign, "mw")
	now = 1500 * time.Microsecond
	asp := root.WithTrack("worker-0").WithWorker(0).Start(spanAttempt, "mw")
	now = 4 * time.Millisecond
	asp.End()
	now = 5 * time.Millisecond
	sp.End()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	spans, err := parseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []span{{spanCampaign, "campaign", 0, 0.005}, {spanAttempt, "worker-0", 0.0015, 0.004}}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i, w := range want {
		if spans[i].Name != w.Name || spans[i].Track != w.Track {
			t.Errorf("span %d = %s@%s, want %s@%s", i, spans[i].Name, spans[i].Track, w.Name, w.Track)
		}
		near(t, w.Name+" start", spans[i].Start, w.Start)
		near(t, w.Name+" end", spans[i].End, w.End)
	}
}

func TestKernelTimesSumsEveryBackend(t *testing.T) {
	reg := obs.NewRegistry()
	obs.NewKernelHists(reg, "scalar").ObserveKernel(0, 3*time.Millisecond)
	obs.NewKernelHists(reg, "batched").ObserveKernel(0, time.Millisecond)
	reg.Histogram("kernel.scalar.other_ms", obs.MsBuckets).Observe(50)
	k := kernelTimesOf(reg.Snapshot())
	near(t, "newview s", k.S[0], 0.004)
	if k.Calls[0] != 2 || len(k.Backends) != 2 {
		t.Errorf("calls %d backends %v, want 2 calls over 2 backends", k.Calls[0], k.Backends)
	}
	near(t, "busy", k.busy(), 0.004)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesAndUnits(t *testing.T) {
	ct, err := summarize(serialSpans(), 2)
	if err != nil {
		t.Fatal(err)
	}
	layers := layerMetrics(layerInputs{
		Workers: 2, SearchWorkers: 1, Jobs: 3, Times: ct,
		Snap: kernelSnap(7, 2, 1), Kernels: kernelTimesOf(kernelSnap(7, 2, 1)),
	})
	e2e := endToEndMetrics(1, 1, 1, 1)
	seen := map[string]bool{}
	for _, m := range append(layers, e2e...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %v", m.Name, metricName)
		}
		if !metricUnit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", m.Name, m.Unit, metricUnit)
		}
		if seen[m.Name] {
			t.Errorf("metric %s emitted twice", m.Name)
		}
		seen[m.Name] = true
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v is not a JSON number", m.Name, m.Value)
		}
	}
}

func TestMedian(t *testing.T) {
	near(t, "odd", median([]float64{3, 1, 2}), 2)
	near(t, "even", median([]float64{4, 1, 3, 2}), 2.5)
	near(t, "empty", median(nil), 0)
}

// TestBenchmarkJSONListsEmittedMetrics keeps BENCHMARK.json and the code in
// step: a run must emit exactly its end_to_end metrics from --trace 0 and
// its per_layer metrics from --trace 1, with the same units.
func TestBenchmarkJSONListsEmittedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	ct, err := summarize(serialSpans(), 2)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, emitted []metric) {
		t.Helper()
		if len(listed) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(listed), len(emitted))
		}
		for i := range min(len(listed), len(emitted)) {
			if listed[i].Name != emitted[i].Name || listed[i].Unit != emitted[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], emitted %s [%s]", kind, i,
					listed[i].Name, listed[i].Unit, emitted[i].Name, emitted[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics(1, 1, 1, 1))
	check("per_layer", spec.PerLayer, layerMetrics(layerInputs{Workers: 2, SearchWorkers: 1, Times: ct}))
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, spec.Workloads[i].Name, w.Name)
		}
	}
}
