package main

// metricDef names one reported metric. The two lists below are the
// benchmark's catalogue: BENCHMARK.json at the root of the tree mirrors them
// (the self-test holds the two in step), and README.md gives each metric's
// definition and, for the per-layer ones, the end-to-end metric it should
// move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd is what an untraced run (--trace 0) reports, on every workload.
var endToEnd = []metricDef{
	{"pkts_per_s", "1/s", "higher", 0.25},
	{"round_ms_p50", "ms", "lower", 0.25},
	{"round_ms_p95", "ms", "lower", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"latency_ms_p95", "ms", "lower", 0.25},
	{"ontime_frac", "frac", "higher", 0.1},
	{"accuracy", "frac", "higher", 0.05},
	{"necessary_per_round", "count", "higher", 0.2},
	{"heap_mb", "MB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what a traced run (--trace 1) reports, on every workload.
var perLayer = []metricDef{
	{Name: "core.decide.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.decide.ms_p99", Unit: "ms", Better: "lower"},
	{Name: "core.decide.ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "predictor.forwards_per_round", Unit: "count", Better: "lower"},
	{Name: "predictor.cache_hit_rate", Unit: "frac", Better: "higher"},
	{Name: "core.feedback.ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "knapsack.selected_per_round", Unit: "count", Better: "higher"},
	{Name: "knapsack.budget_fill", Unit: "frac", Better: "higher"},
	{Name: "core.necessary_ratio", Unit: "frac", Better: "higher"},
	{Name: "decode.calls_per_round", Unit: "count", Better: "higher"},
	{Name: "decode.us_per_call", Unit: "us", Better: "lower"},
	{Name: "decode.failed", Unit: "count", Better: "lower"},
	{Name: "infer.calls_per_round", Unit: "count", Better: "higher"},
	{Name: "infer.us_per_call", Unit: "us", Better: "lower"},
	{Name: "pipeline.source.ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "pipeline.self.ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "stream.wire_bytes_per_pkt", Unit: "bytes", Better: "lower"},
	{Name: "stream.read_wait_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "stream.arrival_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "stream.arrival_lag_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "stream.crc_dropped", Unit: "count", Better: "lower"},
	{Name: "cluster.round.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.round.ms_p99", Unit: "ms", Better: "lower"},
	{Name: "cluster.plan.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.settle.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.source.ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "cluster.journal.bytes", Unit: "bytes/round", Better: "lower"},
	{Name: "cluster.worker.decoded_per_round", Unit: "count", Better: "higher"},
	{Name: "go.alloc_bytes_per_round", Unit: "bytes", Better: "lower"},
	{Name: "go.gc_cycles_per_1k_rounds", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill converts raw values into the result's metric map, with each
// metric's unit; a metric the run did not produce stays absent for the
// caller's completeness check to catch.
func fill(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			out[d.Name] = metric{Value: v, Unit: d.Unit}
		}
	}
	return out
}
