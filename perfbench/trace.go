package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
)

// span is one traced interval: a call into a layer, attributed to the round
// being served when it started. Aggregate spans (the inference task, whose
// calls are too many and too short to record singly) cover a round's first
// to last call, with n the call count and busy their summed time.
type span struct {
	name       string
	round      int64
	start, end int64 // ns since the tracer's base
	n          int64
	busy       int64
}

// tracer records spans in memory; they are written out after the run.
type tracer struct {
	base  time.Time
	round *atomic.Int64 // the round being served, published by the source

	mu    sync.Mutex
	spans []span
}

func newTracer(base time.Time, round *atomic.Int64) *tracer {
	return &tracer{base: base, round: round, spans: make([]span, 0, 1<<16)}
}

// add records a single call [t0, t1) in the current round.
func (t *tracer) add(name string, t0, t1 time.Time) {
	s := span{name: name, round: t.round.Load(), start: int64(t0.Sub(t.base)), end: int64(t1.Sub(t.base)), n: 1}
	s.busy = s.end - s.start
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) addSpan(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byRound groups the named spans by round.
func (t *tracer) byRound(name string) map[int64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64][]span{}
	for _, s := range t.spans {
		if s.name == name {
			out[s.round] = append(out[s.round], s)
		}
	}
	return out
}

// write stores the trace as CSV: one row per round span (parent −1)
// followed by every layer span, whose parent is the row index of its
// round's span. Rows carry name, round, start and end in nanoseconds since
// the run's base, parent, call count and busy time.
func (t *tracer) write(path string, tl *timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,round,start_ns,end_ns,parent,n,busy_ns")
	n := tl.rounds()
	for r := 0; r < n; r++ {
		d := tl.srcStart[r+1] - tl.srcStart[r]
		fmt.Fprintf(w, "round,%d,%d,%d,-1,1,%d\n", r, tl.srcStart[r], tl.srcStart[r+1], d)
	}
	t.mu.Lock()
	for _, s := range t.spans {
		parent := s.round
		if parent >= int64(n) {
			parent = -1
		}
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d\n", s.name, s.round, s.start, s.end, parent, s.n, s.busy)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedGate wraps the gate with decide and feedback spans. It forwards
// every optional entry point the engine probes for — the sparse and
// non-idle Decide variants, the extended Feedback variants and
// SetMaxPending — so tracing leaves the engine on the same path as an
// untraced run. dense counts calls that arrived through the dense Decide,
// which no workload should make.
type tracedGate struct {
	g     *core.Gate
	tr    *tracer
	dense atomic.Int64
}

func (t *tracedGate) Decide(pkts []*codec.Packet) ([]int, error) {
	t.dense.Add(1)
	t0 := time.Now()
	sel, err := t.g.Decide(pkts)
	t.tr.add("decide", t0, time.Now())
	return sel, err
}

func (t *tracedGate) DecideRoundAppend(pkts []*codec.Packet, nonIdle []int32, dst []int) ([]int, error) {
	t.dense.Add(1)
	t0 := time.Now()
	sel, err := t.g.DecideRoundAppend(pkts, nonIdle, dst)
	t.tr.add("decide", t0, time.Now())
	return sel, err
}

func (t *tracedGate) DecideSparseAppend(r *codec.Round, dst []int) ([]int, error) {
	t0 := time.Now()
	sel, err := t.g.DecideSparseAppend(r, dst)
	t.tr.add("decide", t0, time.Now())
	return sel, err
}

func (t *tracedGate) Feedback(selected []int, necessary []bool) error {
	t0 := time.Now()
	err := t.g.Feedback(selected, necessary)
	t.tr.add("feedback", t0, time.Now())
	return err
}

func (t *tracedGate) FeedbackExt(selected []int, necessary, failed []bool) error {
	t0 := time.Now()
	err := t.g.FeedbackExt(selected, necessary, failed)
	t.tr.add("feedback", t0, time.Now())
	return err
}

func (t *tracedGate) FeedbackFull(selected []int, necessary, failed, deferred []bool) error {
	t0 := time.Now()
	err := t.g.FeedbackFull(selected, necessary, failed, deferred)
	t.tr.add("feedback", t0, time.Now())
	return err
}

func (t *tracedGate) SetMaxPending(k int) { t.g.SetMaxPending(k) }

// tracedDecoder wraps the engine's decoder (pipeline.Config.WrapDecoder /
// cluster.WorkerOptions.WrapDecoder) with a span per decode call.
type tracedDecoder struct {
	inner  decode.PacketDecoder
	tr     *tracer
	failed *atomic.Int64
}

func (d *tracedDecoder) Decode(p *codec.Packet) (decode.Frame, error) {
	t0 := time.Now()
	f, err := d.inner.Decode(p)
	d.tr.add("decode", t0, time.Now())
	if err != nil {
		d.failed.Add(1)
	}
	return f, err
}

// tracedTask wraps the inference task. Its calls come from the engine's
// settle loop on one goroutine, so it aggregates them into one span per
// round without locking, handing each round's span to the tracer when the
// next round's first call arrives (and at flush).
type tracedTask struct {
	infer.Task
	tr  *tracer
	agg span
}

func (t *tracedTask) ResultOf(s codec.Scene) infer.Result {
	t0 := time.Now()
	res := t.Task.ResultOf(s)
	t1 := time.Now()
	r := t.tr.round.Load()
	if t.agg.n > 0 && t.agg.round != r {
		t.flush()
	}
	if t.agg.n == 0 {
		t.agg = span{name: "infer", round: r, start: int64(t0.Sub(t.tr.base))}
	}
	t.agg.end = int64(t1.Sub(t.tr.base))
	t.agg.n++
	t.agg.busy += int64(t1.Sub(t0))
	return res
}

func (t *tracedTask) flush() {
	if t.agg.n > 0 {
		t.tr.addSpan(t.agg)
		t.agg = span{}
	}
}

// tracedConn counts the bytes and the blocked read time of the PGSP client's
// connection.
type tracedConn struct {
	net.Conn
	bytes  atomic.Int64
	waitNs atomic.Int64
}

func (c *tracedConn) Read(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(b)
	c.waitNs.Add(int64(time.Since(t0)))
	c.bytes.Add(int64(n))
	return n, err
}

// engineLayers derives the engine-side layer metrics of a traced section
// from its timeline and spans: decide and feedback (core), decode, infer,
// and the pipeline's source and self time. Self time is a round's span less
// the time its child spans cover; the decode spans of one round overlap
// (parallel decode workers), so they count by the union of their intervals.
func engineLayers(tl *timeline, tr *tracer, out map[string]float64) {
	n := tl.rounds()
	decide := tr.byRound("decide")
	feedback := tr.byRound("feedback")
	decodes := tr.byRound("decode")
	infers := tr.byRound("infer")

	var decideMs []float64
	var decideNs, pkts, feedbackNs, decodeNs, decodeCalls, inferNs, inferCalls, sourceNs, selfNs float64
	for r := 0; r < n; r++ {
		rr := int64(r)
		var child int64
		for _, s := range decide[rr] {
			decideMs = append(decideMs, float64(s.busy)/1e6)
			decideNs += float64(s.busy)
			child += s.busy
		}
		pkts += float64(tl.active[r])
		for _, s := range feedback[rr] {
			feedbackNs += float64(s.busy)
			child += s.busy
		}
		for _, s := range decodes[rr] {
			decodeNs += float64(s.busy)
			decodeCalls++
		}
		child += union(decodes[rr])
		for _, s := range infers[rr] {
			inferNs += float64(s.busy)
			inferCalls += float64(s.n)
			child += s.busy
		}
		src := tl.srcEnd[r] - tl.srcStart[r]
		sourceNs += float64(src)
		selfNs += float64(tl.srcStart[r+1] - tl.srcStart[r] - src - child)
	}
	rounds := float64(n)
	out["core.decide.ms_p50"] = quantile(decideMs, 0.5)
	out["core.decide.ms_p99"] = quantile(decideMs, 0.99)
	out["core.decide.ns_per_pkt"] = ratio(decideNs, pkts)
	out["core.feedback.ms_per_round"] = ratio(feedbackNs/1e6, rounds)
	out["infer.calls_per_round"] = ratio(inferCalls, rounds)
	out["infer.us_per_call"] = ratio(inferNs/1e3, inferCalls)
	out["pipeline.source.ms_per_round"] = ratio(sourceNs/1e6, rounds)
	out["pipeline.self.ms_per_round"] = ratio(selfNs/1e6, rounds)
	out["decode.calls_per_round"] = ratio(decodeCalls, rounds)
	out["decode.us_per_call"] = ratio(decodeNs/1e3, decodeCalls)
}

// union is the total length covered by the spans' intervals.
func union(ss []span) int64 {
	if len(ss) == 0 {
		return 0
	}
	iv := make([][2]int64, len(ss))
	for k, s := range ss {
		iv[k] = [2]int64{s.start, s.end}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// loopLayers derives the round loop's phase metrics from a timeline:
// round time, plan (packets in hand → selection known), settle (selection
// known → reports in, or → next request for a single engine) and the
// source call. On the cluster the loop is the coordinator; on a single
// gate it is the engine's round loop.
func loopLayers(tl *timeline, out map[string]float64) {
	n := tl.rounds()
	var roundMs, planMs, settleMs []float64
	var srcMs float64
	for r := 0; r < n; r++ {
		roundMs = append(roundMs, tl.roundMs(r))
		srcMs += tl.sourceMs(r)
		if r < len(tl.decided) {
			planMs = append(planMs, float64(tl.decided[r]-tl.srcEnd[r])/1e6)
			end := tl.srcStart[r+1]
			if r < len(tl.settled) {
				end = tl.settled[r]
			}
			settleMs = append(settleMs, float64(end-tl.decided[r])/1e6)
		}
	}
	out["cluster.round.ms_p50"] = quantile(roundMs, 0.5)
	out["cluster.round.ms_p99"] = quantile(roundMs, 0.99)
	out["cluster.plan.ms_p50"] = quantile(planMs, 0.5)
	out["cluster.settle.ms_p50"] = quantile(settleMs, 0.5)
	out["cluster.source.ms_per_round"] = ratio(srcMs, float64(n))
}
