package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/dataset"
	"packetgame/internal/pipeline"
	"packetgame/internal/stream"
)

// ingest-paced: PGSP ingest over loopback as an open loop. A stream.Server
// with sparse round frames paces 256 Campus1K cameras at one round every
// 10 ms, catching up after stalls without slowing for the client; the
// client path is stream.Client → pipeline.NetSource → the sequential
// engine, whose trained gate fine-tunes its predictor online, so Feedback
// writes weights. Latency runs from each round's due time on the server's
// schedule to its feedback landing in the gate.
const (
	ingestStreams  = 256
	ingestInterval = 10 * time.Millisecond
	ingestWarm     = 50
	onlineLR       = 0.001
)

type ingestInstance struct {
	c      config
	traced bool
	gate   *core.Gate
	budget float64
	digest uint64

	srv    *stream.Server
	conn   *tracedConn // nil when untraced
	client *stream.Client
	paced  *pacing
}

// pacing is what the server's Record tap saw of each round it generated:
// when generation started and how long it took, and every stream's
// ground-truth scene, which the client side needs for accuracy (the wire
// carries none). The tap runs on the server's goroutine, the client reads
// on the engine's, so everything goes through mu.
type pacing struct {
	base  time.Time
	fleet []*codec.Stream // the served fleet, read only on the server's goroutine

	mu     sync.Mutex
	first  []int64 // generation start of round r, ns since base
	last   []int64 // generation end
	truths map[int64][]codec.Scene
	free   [][]codec.Scene
	cur    []codec.Scene // the round being generated (server side)
}

func (p *pacing) record(round int64, i int, _ *codec.Packet) {
	now := int64(time.Since(p.base))
	m := len(p.fleet)
	if i == 0 {
		p.mu.Lock()
		p.first = append(p.first, now)
		if n := len(p.free); n > 0 {
			p.cur = p.free[n-1]
			p.free = p.free[:n-1]
		} else {
			p.cur = make([]codec.Scene, m)
		}
		p.mu.Unlock()
	}
	p.cur[i] = p.fleet[i].LastScene
	if i == m-1 {
		p.mu.Lock()
		p.last = append(p.last, now)
		p.truths[round] = p.cur
		p.mu.Unlock()
	}
}

// take hands over round r's ground truth and recycles prev.
func (p *pacing) take(r int64, prev []codec.Scene) ([]codec.Scene, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev != nil {
		p.free = append(p.free, prev)
	}
	t, ok := p.truths[r]
	if !ok {
		return nil, fmt.Errorf("round %d reached the client before the server finished it", r)
	}
	delete(p.truths, r)
	return t, nil
}

func setupIngest(c config, traced bool) (instance, error) {
	m := ingestStreams
	if c.tiny {
		m = 16
	}
	pred, digest, err := trainPredictor(c.tiny)
	if err != nil {
		return nil, err
	}
	budget := budgetFraction * float64(m)
	gate, err := core.NewGate(core.Config{
		Streams: m, Window: 5, Budget: budget,
		Predictor: pred, UseTemporal: true, OnlineLR: onlineLR,
	})
	if err != nil {
		return nil, err
	}
	ii := &ingestInstance{c: c, traced: traced, gate: gate, budget: budget, digest: digest,
		paced: &pacing{base: time.Now(), truths: map[int64][]codec.Scene{}}}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ii.srv, err = stream.Serve(ln, stream.ServerConfig{
		NewStreams: func() []*codec.Stream {
			ii.paced.fleet = dataset.Campus1K(dataset.Campus1KConfig{Cameras: m, Seed: c.seed})
			return ii.paced.fleet
		},
		Realtime:     true,
		FPS:          int(time.Second / ingestInterval),
		SparseRounds: true,
		Record:       ii.paced.record,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	// The pacing schedule starts when the server accepts: dialing is the
	// last step of set-up, right before the timed section.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ii.srv.Close()
		return nil, err
	}
	var nc net.Conn = conn
	if traced {
		ii.conn = &tracedConn{Conn: conn}
		nc = ii.conn
	}
	if ii.client, err = stream.NewClient(nc); err != nil {
		ii.srv.Close()
		return nil, err
	}
	return ii, nil
}

func (ii *ingestInstance) fingerprint() uint64 { return ii.digest }

func (ii *ingestInstance) close() {
	ii.client.Close()
	ii.srv.Close()
}

func (ii *ingestInstance) run(d time.Duration) (*section, error) {
	tl := newTimeline()
	tl.base = ii.paced.base
	src := newRoundSource(pipeline.NewNetSource(ii.client), tl)
	src.limit = int(d / ingestInterval)
	var truth []codec.Scene
	src.fetched = func(r int64) (err error) {
		truth, err = ii.paced.take(r, truth)
		return err
	}
	src.truth = func(i int) (codec.Scene, bool) { return truth[i], true }
	ck := newChecker(len(ii.client.Streams()), ii.budget, func() float64 { return ii.gate.Stats().CostSpent })
	s := &section{tl: tl, ck: ck, interval: ingestInterval, openLoop: true, dueRounds: src.limit}
	eng := newEngine(ii.gate, src, s, ii.traced)
	eng.warm = ingestWarm
	eng.tracePath = tracePath(ii.c, "")

	st0, inc0 := ii.gate.Stats(), ii.gate.Incremental()
	rep, err := eng.run()
	if err != nil {
		return nil, err
	}
	s.heapMB = liveHeapMB()

	served := tl.rounds()
	p := ii.paced
	p.mu.Lock()
	if len(p.first) < served || len(p.last) < served {
		p.mu.Unlock()
		return nil, fmt.Errorf("the server recorded %d rounds, the client served %d", len(p.last), served)
	}
	t0 := p.first[0]
	s.due = make([]int64, served)
	s.gen = make([]int64, served)
	var lagMs []float64
	for r := 0; r < served; r++ {
		s.due[r] = t0 + int64(r)*int64(ingestInterval)
		s.gen[r] = p.last[r] - p.first[r]
		lagMs = append(lagMs, float64(p.first[r]-s.due[r])/1e6)
	}
	p.mu.Unlock()

	missing := int64(src.limit - served)
	crc := ii.client.CorruptDropped()
	if missing > 0 {
		ck.fail("%d of %d due rounds never arrived", missing, src.limit)
	}
	s.attempted = int64(src.limit) + rep.Decoded + rep.DecodeFailed
	s.failed += missing + crc
	if s.layers != nil {
		gateLayers(ii.gate, st0, inc0, ii.budget, rep, s.layers)
		loopLayers(tl, s.layers)
		lo, hi := s.counted()
		lag := lagMs[lo:hi]
		pkts := 0.0
		for _, a := range tl.active {
			pkts += float64(a)
		}
		s.layers["stream.wire_bytes_per_pkt"] = ratio(float64(ii.conn.bytes.Load()), pkts)
		s.layers["stream.read_wait_ms_per_round"] = ratio(float64(ii.conn.waitNs.Load())/1e6, float64(served))
		s.layers["stream.arrival_lag_ms_p50"] = quantile(lag, 0.5)
		s.layers["stream.arrival_lag_ms_p99"] = quantile(lag, 0.99)
		s.layers["stream.crc_dropped"] = float64(crc)
		s.layers["cluster.journal.bytes"] = 0
	}
	return s, nil
}
