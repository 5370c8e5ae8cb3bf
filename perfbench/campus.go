package main

import (
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/dataset"
	"packetgame/internal/pipeline"
)

// gate-campus: the paper's deployment in one process, as a closed loop.
// 256 Campus1K H.265 cameras all deliver every round into the contextual +
// temporal + dependency-aware gate (trained predictor) under a budget of
// 0.1·m P-frame units; the sequential engine decodes on two workers and
// runs person counting. The predictor forward dominates a round. At 1024
// cameras a round takes ~12 ms, too few rounds in a run for a p99 that
// holds still on a shared host; 256 cameras give ~3 ms rounds, the size
// of ingest-paced's fleet, so the two differ only in the loop, the stream
// layer and online fine-tuning.
const (
	campusStreams = 256
	campusWarm    = 50
	campusQuality = 1600 // rounds after warm-up that accuracy covers
)

type campusInstance struct {
	c      config
	traced bool
	fleet  []*codec.Stream
	gate   *core.Gate
	budget float64
	digest uint64
}

func setupCampus(c config, traced bool) (instance, error) {
	m := campusStreams
	if c.tiny {
		m = 32
	}
	pred, digest, err := trainPredictor(c.tiny)
	if err != nil {
		return nil, err
	}
	budget := budgetFraction * float64(m)
	gate, err := core.NewGate(core.Config{
		Streams: m, Window: 5, Budget: budget,
		Predictor: pred, UseTemporal: true,
		Selector: c.selector,
	})
	if err != nil {
		return nil, err
	}
	fleet := dataset.Campus1K(dataset.Campus1KConfig{Cameras: m, Seed: c.seed})
	return &campusInstance{c: c, traced: traced, fleet: fleet, gate: gate, budget: budget, digest: digest}, nil
}

func (ci *campusInstance) fingerprint() uint64 { return ci.digest }
func (ci *campusInstance) close()              {}

func (ci *campusInstance) run(d time.Duration) (*section, error) {
	m := len(ci.fleet)
	tl := newTimeline()
	src := newRoundSource(pipeline.NewLocalSource(ci.fleet, 0), tl)
	ck := newChecker(m, ci.budget, func() float64 { return ci.gate.Stats().CostSpent })
	s := &section{tl: tl, ck: ck, interval: frameInterval}
	eng := newEngine(ci.gate, src, s, ci.traced)
	eng.warm, eng.quality = campusWarm, campusQuality
	eng.tracePath = tracePath(ci.c, "")

	st0, inc0 := ci.gate.Stats(), ci.gate.Incremental()
	src.deadline = time.Now().Add(d)
	rep, err := eng.run()
	if err != nil {
		return nil, err
	}
	s.heapMB = liveHeapMB()
	s.attempted = int64(tl.rounds()) + rep.Decoded + rep.DecodeFailed
	if s.layers != nil {
		gateLayers(ci.gate, st0, inc0, ci.budget, rep, s.layers)
		loopLayers(tl, s.layers)
		generatorLayers(tl, s.layers)
		s.layers["cluster.journal.bytes"] = 0
	}
	return s, nil
}
