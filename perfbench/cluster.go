package main

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"packetgame/internal/cluster"
	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
)

// cluster-sparse: a coordinator and two workers over loopback PGCP in
// lockstep, journal on, gating 100k streams of which 1% deliver per round,
// rotating so every stream sends every 100th round and all of the gate
// state is touched — far more than the CPU caches hold. The gate is
// temporal-only (the predictor does no work) under a budget of 0.1·active.
// After the run an in-process single gate replays the same seeded rounds;
// the cluster must have made exactly its decisions.
const (
	clusterStreams = 100_000
	clusterPeriod  = 100
	clusterWarm    = 5 * clusterPeriod
	clusterQuality = 15 * clusterPeriod // rounds after warm-up that accuracy covers
	clusterWorkers = 2
)

// rotatingFleet generates the cluster's rounds: stream i delivers in round
// r when i ≡ r (mod period), in 5-packet GOPs. At each of its packets a
// stream's person count is redrawn with a per-stream probability — 3/4 for
// the tenth of the streams that are busy, 1/4 for the rest — from a
// geometric distribution (half the draws are an empty scene), and a P-frame
// that carries a change is larger. A redraw forgets the past, so a stale
// result is right or wrong independent of history and accuracy settles
// within a few turns of each stream. Every draw is a hash of (seed, stream,
// sequence number); the state per stream is its count, and its packet
// struct is reused — untouched until the stream's next turn, 100 rounds
// later — so the generator allocates nothing per round.
type rotatingFleet struct {
	m, period int
	seed      uint64
	round     int64
	count     []uint8
	pkts      []codec.Packet
	scenes    []codec.Scene // scenes[k]: k people in view
	payloads  [][]byte      // payloads[k] encodes scenes[k]
	rnd       codec.Round
}

const (
	maxPeople   = 12
	fleetGOP    = 5
	busyOneIn   = 10
	busyChange  = 3 << 62 // change probabilities, in units of 2^-64
	quietChange = 1 << 62
)

func newRotatingFleet(m, period int, seed int64) *rotatingFleet {
	f := &rotatingFleet{m: m, period: period, seed: uint64(seed),
		count: make([]uint8, m), pkts: make([]codec.Packet, m)}
	// Payloads come from the real encoder, so decoding recovers exactly the
	// scene the ground truth reports.
	enc := codec.NewEncoder(codec.EncoderConfig{Codec: codec.H265, GOPSize: fleetGOP}, seed)
	for k := 0; k <= maxPeople; k++ {
		sc := codec.Scene{PersonCount: k, Richness: 0.5, Motion: 0.1 * float64(k), Activity: 0.3}
		f.scenes = append(f.scenes, sc)
		f.payloads = append(f.payloads, enc.Encode(sc).Payload)
	}
	// Counts start from the distribution they are redrawn from.
	for i := range f.count {
		f.count[i] = uint8(bits.TrailingZeros64(mix(f.seed, uint64(i), math.MaxUint64-1) | 1<<maxPeople))
	}
	return f
}

// mix hashes its inputs into 64 well-mixed bits (splitmix64 finalizer).
func mix(a, b, c uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 ^ b*0xBF58476D1CE4E5B9 ^ c*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// NextRoundSparse implements pipeline.SparseRoundSource.
func (f *rotatingFleet) NextRoundSparse() (*codec.Round, error) {
	r := f.round
	f.round++
	seq := r / int64(f.period)
	f.rnd.Reset(f.m)
	for i := int(r % int64(f.period)); i < f.m; i += f.period {
		u := mix(f.seed, uint64(i), uint64(seq))
		p := uint64(quietChange)
		if mix(f.seed, uint64(i), math.MaxUint64)%busyOneIn == 0 {
			p = busyChange
		}
		changed := false
		if u < p {
			// The low bits are independent of the comparison above: their
			// trailing zeros are a geometric draw, P(k) = 2^-(k+1).
			k := uint8(bits.TrailingZeros64(u | 1<<maxPeople))
			changed = k != f.count[i]
			f.count[i] = k
		}
		gop := int((seq + int64(i)) % fleetGOP)
		typ, size := codec.PictureP, 300+int(u>>40)%400
		if changed {
			size += 1500
		}
		if gop == 0 {
			typ, size = codec.PictureI, 8000+int(u>>40)%4000
		}
		pk := &f.pkts[i]
		*pk = codec.Packet{StreamID: i, Seq: seq, PTS: seq * 40, Type: typ, Codec: codec.H265,
			Size: size, GOPIndex: gop, GOPSize: fleetGOP, Payload: f.payloads[f.count[i]]}
		f.rnd.Append(int32(i), pk)
	}
	return &f.rnd, nil
}

// NextRound implements pipeline.RoundSource; the round loops take the sparse
// form.
func (f *rotatingFleet) NextRound() ([]*codec.Packet, error) { return nil, errDense }

// Truth implements pipeline.RoundSource.
func (f *rotatingFleet) Truth(i int) (codec.Scene, bool) { return f.scenes[f.count[i]], true }

type clusterInstance struct {
	c       config
	traced  bool
	m       int
	budget  float64
	journal string

	tl      *timeline
	src     *roundSource
	ck      *checker
	start   chan struct{}
	done    chan runOutcome
	coord   *cluster.Coordinator
	workers []*cluster.Worker
	ran     bool

	acc0, acc1 accTotals // monitor totals at the end of warm-up and after

	tr        *tracer
	decFail   atomic.Int64
	jBytes    int64 // journal bytes appended by rounds (traced)
	jRounds   int64
	jLastSize int64
}

type runOutcome struct {
	rep cluster.Report
	err error
}

var journalSeq atomic.Int64

func setupCluster(c config, traced bool) (instance, error) {
	m := clusterStreams
	if c.tiny {
		m = 2000
	}
	active := m / clusterPeriod
	ci := &clusterInstance{c: c, traced: traced, m: m, budget: budgetFraction * float64(active),
		tl: newTimeline(), start: make(chan struct{}), done: make(chan runOutcome, 1),
		journal: filepath.Join(c.workdir, fmt.Sprintf("journal-%d-%d.pgj", os.Getpid(), journalSeq.Add(1)))}
	ci.src = newRoundSource(newRotatingFleet(m, clusterPeriod, c.seed), ci.tl)
	ci.src.start = ci.start
	ci.ck = newChecker(m, ci.budget, ci.spent)
	if traced {
		ci.tr = newTracer(ci.tl.base, &ci.src.round)
	}
	coord, err := cluster.NewCoordinator(cluster.CoordConfig{
		Streams: m, Window: 5, Budget: ci.budget, UseTemporal: true,
		Task: "PC", MinWorkers: clusterWorkers, Source: ci.src,
		JournalPath: ci.journal, Lease: time.Minute,
		OnRound: func(r int64, sel []int) {
			ci.tl.decided = append(ci.tl.decided, ci.tl.now())
			ci.ck.selection(r, ci.src.cur, sel)
		},
		OnRoundEnd: func(r int64) {
			ci.tl.settled = append(ci.tl.settled, ci.tl.now())
			ci.ck.cost(r)
			switch r + 1 {
			case clusterWarm:
				ci.acc0 = ci.totals()
				ci.acc0.at = clusterWarm
			case clusterWarm + clusterQuality:
				ci.acc1 = ci.totals()
				ci.acc1.at = clusterWarm + clusterQuality
			}
			if ci.traced {
				ci.journalGrowth()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	ci.coord = coord
	go func() {
		rep, err := coord.Run()
		ci.done <- runOutcome{rep, err}
	}()
	// Workers dial one after another so their ids, and so the placement
	// ring, are the same in every run.
	for k := 0; k < clusterWorkers; k++ {
		opts := cluster.WorkerOptions{Name: fmt.Sprintf("w%d", k), DecodeWorkers: decodeWorkers / clusterWorkers}
		if traced {
			opts.WrapDecoder = func(d decode.PacketDecoder) decode.PacketDecoder {
				return &tracedDecoder{inner: d, tr: ci.tr, failed: &ci.decFail}
			}
		}
		w, err := cluster.Dial(coord.Addr(), opts)
		if err != nil {
			ci.close()
			return nil, fmt.Errorf("worker %d: %w", k, err)
		}
		ci.workers = append(ci.workers, w)
	}
	return ci, nil
}

// totals sums the workers' monitor totals. The coordinator calls it
// between rounds, when every worker is idle.
func (ci *clusterInstance) totals() accTotals {
	var t accTotals
	for _, w := range ci.workers {
		t.add(w.Fleet())
	}
	return t
}

// spent sums the decode cost every worker's gate has committed. The
// coordinator calls it between rounds, when every worker is idle.
func (ci *clusterInstance) spent() float64 {
	var s float64
	for _, w := range ci.workers {
		s += w.Gate().Stats().CostSpent
	}
	return s
}

func (ci *clusterInstance) journalGrowth() {
	st, err := os.Stat(ci.journal)
	if err != nil {
		return
	}
	// A compaction rewrites the file as one snapshot; that round's growth
	// is not an append and is skipped.
	if d := st.Size() - ci.jLastSize; d >= 0 && ci.jLastSize > 0 {
		ci.jBytes += d
		ci.jRounds++
	}
	ci.jLastSize = st.Size()
}

// fingerprint is constant: the cluster's set-up trains nothing.
func (ci *clusterInstance) fingerprint() uint64 { return 0 }

// close ends a cluster that has not run (the source ends it at round 0)
// and waits for the coordinator and every worker to stop.
func (ci *clusterInstance) close() {
	if !ci.ran {
		ci.ran = true
		ci.src.deadline = time.Now()
		close(ci.start)
		<-ci.done
		for _, w := range ci.workers {
			w.Wait()
		}
	}
	os.Remove(ci.journal)
}

func (ci *clusterInstance) run(d time.Duration) (*section, error) {
	ci.ran = true
	s := &section{tl: ci.tl, ck: ci.ck, interval: frameInterval}
	runtime.ReadMemStats(&s.mem0)
	ci.src.deadline = time.Now().Add(d)
	close(ci.start)
	out := <-ci.done
	for k, w := range ci.workers {
		if err := w.Wait(); err != nil {
			s.failed++
			ci.ck.fail("worker %d: %v", k, err)
		}
	}
	runtime.ReadMemStats(&s.mem1)
	rep := out.rep
	if out.err != nil {
		s.failed++
		ci.ck.fail("coordinator stopped: %v", out.err)
	}
	s.heapMB = liveHeapMB()

	n := int64(ci.tl.rounds())
	if rep.Rounds != n || int64(len(ci.ck.hashes)) != n || int64(len(ci.tl.settled)) != n {
		ci.ck.fail("%d rounds served, %d reported, %d decided, %d settled", n, rep.Rounds, len(ci.ck.hashes), len(ci.tl.settled))
	}
	if rep.DecisionHash != ci.ck.hash() {
		ci.ck.fail("coordinator reports decision hash %016x, its selections fold to %016x", rep.DecisionHash, ci.ck.hash())
	}
	s.acc0, s.acc1 = ci.acc0, ci.acc1
	if s.acc0.at > 0 {
		s.warm = s.acc0.at
	}
	if s.acc1.at == 0 {
		s.acc1 = ci.totals()
		s.acc1.at = int(n)
	}
	s.attempted = n + rep.Decoded + clusterWorkers
	s.failed += rep.DecodeFailed + int64(rep.Deaths)
	if n == 0 {
		return nil, errors.New("the cluster served no rounds")
	}
	var layers map[string]float64
	if ci.traced {
		var err error
		if layers, err = ci.layers(rep); err != nil {
			return nil, err
		}
	}
	// Release the cluster before the replay builds its own 100k-stream gate.
	ci.workers, ci.coord = nil, nil

	// The single-gate replay: same generator, same seed, same rounds.
	oracle, err := ci.replay(int(n))
	if err != nil {
		return nil, err
	}
	for _, p := range oracle.ck.problems {
		ci.ck.fail("single gate: %s", p)
	}
	if oracle.failed > 0 {
		ci.ck.fail("single gate: %d operations failed", oracle.failed)
	}
	if oracle.ck.hash() != ci.ck.hash() || oracle.tl.rounds() != int(n) {
		ci.ck.fail("cluster decisions %016x over %d rounds differ from the single gate's %016x over %d",
			ci.ck.hash(), n, oracle.ck.hash(), oracle.tl.rounds())
	} else {
		s.note("cluster = single gate over %d rounds: %016x", n, ci.ck.hash())
	}
	if ci.traced {
		// The workers' gates and engines are internal to the cluster; the
		// replay's traced single gate ran the same code over the same
		// rounds and stands in for the engine-side layers.
		s.layers = oracle.layers
		for k, v := range layers {
			s.layers[k] = v
		}
	}
	return s, nil
}

// layers derives the cluster's own layer metrics: selections, budget use
// and necessity summed over the workers, the workers' decoders, the
// coordinator's round phases and the journal.
func (ci *clusterInstance) layers(rep cluster.Report) (map[string]float64, error) {
	out := map[string]float64{}
	rounds := float64(ci.tl.rounds())
	var wDecoded int64
	for _, w := range ci.workers {
		wDecoded += w.Gate().Stats().Decoded
	}
	out["knapsack.selected_per_round"] = ratio(float64(rep.Decoded), rounds)
	out["knapsack.budget_fill"] = ratio(ci.spent(), ci.budget*rounds)
	out["core.necessary_ratio"] = ratio(float64(ci.totals().necessary), float64(rep.Decoded))
	out["cluster.worker.decoded_per_round"] = ratio(float64(wDecoded), rounds)
	out["cluster.journal.bytes"] = ratio(float64(ci.jBytes), float64(ci.jRounds))
	var calls, ns float64
	for _, ss := range ci.tr.byRound("decode") {
		for _, sp := range ss {
			calls++
			ns += float64(sp.busy)
		}
	}
	out["decode.calls_per_round"] = ratio(calls, rounds)
	out["decode.us_per_call"] = ratio(ns/1e3, calls)
	out["decode.failed"] = float64(ci.decFail.Load())
	loopLayers(ci.tl, out)
	generatorLayers(ci.tl, out)
	return out, ci.tr.write(tracePath(ci.c, ""), ci.tl)
}

// replay runs the single gate over the cluster's inputs for n rounds,
// traced when the cluster was, and returns its section.
func (ci *clusterInstance) replay(n int) (*section, error) {
	gate, err := core.NewGate(core.Config{Streams: ci.m, Window: 5, Budget: ci.budget, UseTemporal: true})
	if err != nil {
		return nil, err
	}
	tl := newTimeline()
	src := newRoundSource(newRotatingFleet(ci.m, clusterPeriod, ci.c.seed), tl)
	src.limit = n
	ck := newChecker(ci.m, ci.budget, func() float64 { return gate.Stats().CostSpent })
	st0, inc0 := gate.Stats(), gate.Incremental()
	s := &section{tl: tl, ck: ck}
	eng := newEngine(gate, src, s, ci.traced)
	eng.tracePath = tracePath(ci.c, "-single-gate")
	rep, err := eng.run()
	if err != nil {
		return nil, err
	}
	if s.layers != nil {
		gateLayers(gate, st0, inc0, ci.budget, rep, s.layers)
	}
	return s, nil
}
