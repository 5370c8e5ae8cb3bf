package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/knapsack"
)

// tinyRun runs one workload at tiny scale and returns its result and log.
func tinyRun(t *testing.T, workload string, trace bool, sel knapsack.Selector) (result, string) {
	t.Helper()
	c := config{workload: workload, seed: 7, seconds: 1, trace: trace, workdir: t.TempDir(), tiny: true, selector: sel}
	var log bytes.Buffer
	res, err := execute(c, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, log.String())
	}
	return res, log.String()
}

// TestEveryMetricReported runs every workload untraced and traced at tiny
// scale: each run must pass its checks and report every catalogue metric,
// finite and with its unit.
func TestEveryMetricReported(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, log := tinyRun(t, w.name, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, log)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.name, trace, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, d.Name, m.Value)
				case m.Unit != d.Unit || m.Unit == "":
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.name, trace, d.Name, m.Unit, d.Unit)
				}
			}
			if trace && !strings.Contains(log, "traced = untraced") {
				t.Errorf("%s: no traced/untraced decision comparison in\n%s", w.name, log)
			}
		}
	}
}

// overSelector selects every item, blowing the budget.
type overSelector struct{}

func (overSelector) Name() string { return "over" }
func (overSelector) Select(items []knapsack.Item, budget float64) []int {
	sel := make([]int, len(items))
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// dupSelector selects the first item twice.
type dupSelector struct{}

func (dupSelector) Name() string                                       { return "dup" }
func (dupSelector) Select(items []knapsack.Item, budget float64) []int { return []int{0, 0} }

// TestPlantedViolationsTrip plants faulty optimizers in the single gate:
// the output checks must fail the run.
func TestPlantedViolationsTrip(t *testing.T) {
	for _, tc := range []struct {
		sel  knapsack.Selector
		want string
	}{
		{overSelector{}, "over a budget"},
		{dupSelector{}, "twice or without a packet"},
	} {
		res, log := tinyRun(t, "gate-campus", false, tc.sel)
		if res.Correct {
			t.Errorf("%s: run passed its checks\n%s", tc.sel.Name(), log)
		}
		if !strings.Contains(log, tc.want) {
			t.Errorf("%s: log lacks %q\n%s", tc.sel.Name(), tc.want, log)
		}
	}
}

// TestChecksCatchBadSelections drives the checker directly with the
// selections a faulty gate could make.
func TestChecksCatchBadSelections(t *testing.T) {
	var rnd codec.Round
	rnd.Reset(8)
	for _, id := range []int32{1, 3, 5} {
		rnd.Append(id, &codec.Packet{StreamID: int(id)})
	}
	spent := 0.0
	for _, tc := range []struct {
		name  string
		round int64
		sel   []int
		cost  float64
		ok    bool
	}{
		{"valid", 0, []int{5, 1}, 2, true},
		{"idle stream", 0, []int{2}, 1, false},
		{"duplicate", 0, []int{3, 3}, 1, false},
		{"outside fleet", 0, []int{9}, 1, false},
		{"over budget", 0, []int{1}, 2.5, false},
		{"out of order", 1, []int{1}, 1, false},
	} {
		ck := newChecker(8, 2, func() float64 { return spent })
		spent = tc.cost
		ck.selection(tc.round, &rnd, tc.sel)
		ck.cost(tc.round)
		spent = 0
		if got := ck.nproblems == 0; got != tc.ok {
			t.Errorf("%s: passed=%v, want %v (%v)", tc.name, got, tc.ok, ck.problems)
		}
	}
}

// TestDecisionsRepeat runs each workload twice with the same seed: the
// decision hashes over the common prefix of rounds must agree.
func TestDecisionsRepeat(t *testing.T) {
	for _, w := range workloads {
		c := config{workload: w.name, seed: 3, workdir: t.TempDir(), tiny: true}
		var hs [2]*checker
		var ns [2]int
		for k := range hs {
			inst, err := w.setup(c, false)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			s, err := inst.run(300 * time.Millisecond)
			inst.close()
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			hs[k], ns[k] = s.ck, len(s.ck.hashes)
		}
		n := min(ns[0], ns[1])
		if n == 0 {
			t.Fatalf("%s: no rounds decided", w.name)
		}
		if a, b := hs[0].hashAt(n), hs[1].hashAt(n); a != b {
			t.Errorf("%s: same seed, different decisions over %d rounds: %016x vs %016x", w.name, n, a, b)
		}
	}
}

// The engine probes its gate for these optional entry points; a tracing
// wrapper that hid one would move the run onto another path.
var (
	_ interface {
		DecideSparseAppend(*codec.Round, []int) ([]int, error)
	} = (*tracedGate)(nil)
	_ interface {
		DecideRoundAppend([]*codec.Packet, []int32, []int) ([]int, error)
	} = (*tracedGate)(nil)
	_ interface {
		FeedbackExt([]int, []bool, []bool) error
	} = (*tracedGate)(nil)
	_ interface {
		FeedbackFull([]int, []bool, []bool, []bool) error
	} = (*tracedGate)(nil)
	_ interface{ SetMaxPending(int) } = (*tracedGate)(nil)
)

// TestCatalogueMatchesBenchmarkJSON holds BENCHMARK.json at the root of the
// tree in step with the workload registry and the metric catalogue.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the registry %d", len(bj.Workloads), len(workloads))
	}
	for k, w := range workloads {
		if bj.Workloads[k].Name != w.name || bj.Workloads[k].Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %+v, registry %q", k, bj.Workloads[k], w.name)
		}
	}
	for _, tc := range []struct {
		name      string
		json, cat []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.cat) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalogue %d", tc.name, len(tc.json), len(tc.cat))
		}
		for k := range tc.cat {
			if tc.json[k] != tc.cat[k] {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalogue %+v", tc.name, k, tc.json[k], tc.cat[k])
			}
		}
	}
}

// TestQuietMedian: a closed loop whose host spends most of the run slow
// reads its fast rounds' median however large the slow share, and a program
// that got slower everywhere reads slower.
func TestQuietMedian(t *testing.T) {
	series := func(slowShare, scale float64) (ms, pkts []float64) {
		for b := 0; b < 200; b++ {
			base := 1.0
			if float64(b%20) < 20*slowShare {
				base = 2
			}
			for i := 0; i < quietRounds; i++ {
				ms = append(ms, scale*(base+0.01*float64(i%7)))
				pkts = append(pkts, 256)
			}
		}
		return ms, pkts
	}
	for _, share := range []float64{0.1, 0.5, 0.9} {
		ms, pkts := series(share, 1)
		got, perRound, k := quietMedian(ms, pkts)
		if got < 1 || got > 1.07 || perRound != 256 || k != 10*quietRounds {
			t.Errorf("slow share %.1f: median %v, %v packets a round over %d rounds; want the fast rounds' median over %d", share, got, perRound, k, 10*quietRounds)
		}
		ms, pkts = series(share, 1.2)
		if slower, _, _ := quietMedian(ms, pkts); slower < 1.19*got {
			t.Errorf("slow share %.1f: 20%% slower rounds read %v against %v", share, slower, got)
		}
	}
}
