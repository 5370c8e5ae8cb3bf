package main

import (
	"runtime"
	"sync/atomic"

	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/pipeline"
)

// engine is a sequential pipeline engine wired for measurement: the round
// source wrapper, the checks on every decision and, when traced, the gate,
// decoder and task wrappers.
type engine struct {
	eng *pipeline.Engine
	src *roundSource
	s   *section
	// warm is the round at which warm-up ends, quality how many rounds
	// after it the accuracy totals cover (0: to the end); the monitor
	// totals are snapshot at both.
	warm, quality int64
	tr            *tracer
	tg            *tracedGate
	task          *tracedTask
	decFail       atomic.Int64
	// tracePath is where a traced run writes its spans.
	tracePath string
}

func newEngine(gate *core.Gate, src *roundSource, s *section, traced bool) *engine {
	e := &engine{src: src, s: s}
	tl, ck := s.tl, s.ck
	cfg := pipeline.Config{
		Source:      src,
		Gate:        gate,
		Task:        infer.PersonCounting{},
		Workers:     decodeWorkers,
		MaxInFlight: 1,
		OnRound: func(r int64, sel []int) {
			tl.decided = append(tl.decided, tl.now())
			ck.selection(r, src.cur, sel)
			ck.cost(r)
			// The fleet has settled rounds 0..r−1.
			if r == e.warm && r > 0 {
				s.acc0.add(e.eng.Fleet())
				s.acc0.at, s.warm = int(r), int(r)
			}
			if e.quality > 0 && r == e.warm+e.quality {
				s.acc1.add(e.eng.Fleet())
				s.acc1.at = int(r)
			}
		},
	}
	if traced {
		e.tr = newTracer(tl.base, &src.round)
		e.tg = &tracedGate{g: gate, tr: e.tr}
		e.task = &tracedTask{Task: infer.PersonCounting{}, tr: e.tr}
		cfg.Gate, cfg.Task = e.tg, e.task
		cfg.WrapDecoder = func(d decode.PacketDecoder) decode.PacketDecoder {
			return &tracedDecoder{inner: d, tr: e.tr, failed: &e.decFail}
		}
	}
	// pipeline.New fails only on a missing Source, Gate or Task, or on
	// inconsistent engine options, none of which this wiring produces.
	eng, err := pipeline.New(cfg)
	if err != nil {
		panic(err)
	}
	e.eng = eng
	return e
}

// run serves rounds until the source ends them, then fills the section's
// totals and, when traced, the engine's layer metrics.
func (e *engine) run() (pipeline.Report, error) {
	s := e.s
	runtime.ReadMemStats(&s.mem0)
	rep, err := e.eng.Run(0)
	runtime.ReadMemStats(&s.mem1)
	if err != nil {
		s.failed++
		s.ck.fail("engine stopped: %v", err)
	}
	if n := int64(s.tl.rounds()); rep.Rounds != n || int64(len(s.ck.hashes)) != n {
		s.ck.fail("%d rounds served, %d settled, %d decided", n, rep.Rounds, len(s.ck.hashes))
	}
	if f := e.eng.Fleet(); f != nil && s.acc1.at == 0 {
		s.acc1.add(f)
		s.acc1.at = s.tl.rounds()
	}
	s.failed += rep.DecodeFailed
	if e.tr != nil {
		e.task.flush()
		if n := e.tg.dense.Load(); n > 0 {
			s.ck.fail("%d rounds reached the gate through a dense Decide", n)
		}
		s.layers = map[string]float64{}
		engineLayers(s.tl, e.tr, s.layers)
		s.layers["decode.failed"] = float64(e.decFail.Load())
		if err := e.tr.write(e.tracePath, s.tl); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// gateLayers derives the gate's work counters over a section: predictor
// forwards and score-cache hits, and the knapsack's selections, budget use
// and the share of decodes that were necessary.
func gateLayers(g *core.Gate, st0 core.Stats, inc0 core.IncrementalStats, budget float64, rep pipeline.Report, out map[string]float64) {
	st, inc := g.Stats(), g.Incremental()
	rounds := float64(st.Rounds - st0.Rounds)
	out["predictor.forwards_per_round"] = ratio(float64(inc.Forwards-inc0.Forwards), rounds)
	out["predictor.cache_hit_rate"] = ratio(float64(inc.CacheHits-inc0.CacheHits), float64(inc.Scored-inc0.Scored))
	out["knapsack.selected_per_round"] = ratio(float64(st.Decoded-st0.Decoded), rounds)
	out["knapsack.budget_fill"] = ratio(st.CostSpent-st0.CostSpent, budget*rounds)
	out["core.necessary_ratio"] = ratio(float64(rep.NecessaryDecoded), float64(rep.Decoded))
	out["cluster.worker.decoded_per_round"] = out["knapsack.selected_per_round"]
}

// generatorLayers fills the stream metrics of a workload whose rounds come
// from an in-process generator: nothing crosses a socket, and waiting for a
// round's input means waiting for the generator call.
func generatorLayers(tl *timeline, out map[string]float64) {
	n := tl.rounds()
	var srcMs []float64
	for r := 0; r < n; r++ {
		srcMs = append(srcMs, tl.sourceMs(r))
	}
	out["stream.wire_bytes_per_pkt"] = 0
	out["stream.read_wait_ms_per_round"] = mean(srcMs)
	out["stream.arrival_lag_ms_p50"] = quantile(srcMs, 0.5)
	out["stream.arrival_lag_ms_p99"] = quantile(srcMs, 0.99)
	out["stream.crc_dropped"] = 0
}
