package core

import (
	"bytes"
	"testing"

	"packetgame/internal/codec"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/predictor"
	"packetgame/internal/trace"
)

// adTask is the anomaly-detection task used throughout these tests.
type adTask = infer.AnomalyDetection

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no streams", Config{Budget: 5, UseTemporal: true}},
		{"no budget", Config{Streams: 3, UseTemporal: true}},
		{"no scorer", Config{Streams: 3, Budget: 5}},
	}
	for _, c := range cases {
		if _, err := NewGate(c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestConfigPredictorWindowMismatch(t *testing.T) {
	pcfg := predictor.DefaultConfig()
	pcfg.Window = 10
	p, err := predictor.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGate(Config{Streams: 2, Budget: 5, Window: 5, Predictor: p}); err == nil {
		t.Error("window mismatch must error")
	}
	if _, err := NewGate(Config{Streams: 2, Budget: 5, Window: 10, Predictor: p, TaskIndex: 3}); err == nil {
		t.Error("task index out of range must error")
	}
}

func TestGateProtocolEnforced(t *testing.T) {
	g, err := NewGate(Config{Streams: 2, Budget: 5, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Feedback(nil, nil); err == nil {
		t.Error("Feedback before Decide must error")
	}
	pkts := []*codec.Packet{
		{Type: codec.PictureI, GOPIndex: 0, GOPSize: 5, Size: 1000},
		{Type: codec.PictureI, GOPIndex: 0, GOPSize: 5, Size: 1000},
	}
	sel, err := g.Decide(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Decide(pkts); err == nil {
		t.Error("second Decide without Feedback must error")
	}
	nec := make([]bool, len(sel))
	if err := g.Feedback(sel, nec[:0]); err == nil && len(sel) > 0 {
		t.Error("feedback length mismatch must error")
	}
	if err := g.Feedback(sel, nec); err != nil {
		t.Fatal(err)
	}
	if err := g.Feedback(sel, nec); err == nil {
		t.Error("double Feedback must error")
	}
}

// TestFeedbackRejectsRepeatedStream: a feedback that lists one selected
// stream in place of the others must fail and leave the round pending.
// Accepting it would record the streams it omits in the UCB window as
// selected and redundant, a verdict nobody gave.
func TestFeedbackRejectsRepeatedStream(t *testing.T) {
	const m = 4
	g, err := NewGate(Config{Streams: m, Budget: 100, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*codec.Packet, m)
	for i := range pkts {
		pkts[i] = &codec.Packet{StreamID: i, Type: codec.PictureI, GOPSize: 5, Size: 1000}
	}
	sel, err := g.Decide(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != m {
		t.Fatalf("selected %v, want all %d streams", sel, m)
	}
	dup := make([]int, m)
	for k := range dup {
		dup[k] = sel[0]
	}
	nec := []bool{true, true, true, true}
	if err := g.Feedback(dup, nec); err == nil {
		t.Fatalf("feedback %v for selection %v accepted", dup, sel)
	}
	if g.Pending() != 1 {
		t.Fatalf("rejected feedback retired the round: pending = %d", g.Pending())
	}
	if err := g.Feedback(sel, nec); err != nil {
		t.Fatalf("genuine feedback after the rejected one: %v", err)
	}
	for i, v := range exploitSnapshot(g) {
		if v != 1 {
			t.Errorf("stream %d: exploitation %v, want 1 from its necessary verdict", i, v)
		}
	}
}

func TestGateRejectsWrongPacketCount(t *testing.T) {
	g, err := NewGate(Config{Streams: 3, Budget: 5, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Decide(make([]*codec.Packet, 2)); err == nil {
		t.Error("packet count mismatch must error")
	}
}

func TestGateRespectsBudgetPerRound(t *testing.T) {
	const m = 10
	g, err := NewGate(Config{Streams: m, Budget: 4, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]*codec.Stream, m)
	for i := range streams {
		streams[i] = codec.NewStream(codec.SceneConfig{BaseActivity: 0.7},
			codec.EncoderConfig{StreamID: i, GOPSize: 10}, int64(i))
	}
	for round := 0; round < 100; round++ {
		pkts := make([]*codec.Packet, m)
		for i, st := range streams {
			pkts[i] = st.Next()
		}
		before := g.Stats().CostSpent
		sel, err := g.Decide(pkts)
		if err != nil {
			t.Fatal(err)
		}
		if spent := g.Stats().CostSpent - before; spent > 4+1e-9 {
			t.Fatalf("round %d spent %v > budget 4", round, spent)
		}
		if err := g.Feedback(sel, make([]bool, len(sel))); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Stats()
	if st.Rounds != 100 || st.Packets != 100*m {
		t.Errorf("stats = %+v", st)
	}
	if st.Decoded == 0 {
		t.Error("gate decoded nothing")
	}
}

func TestGateIdleStreamsNeverSelected(t *testing.T) {
	g, err := NewGate(Config{Streams: 3, Budget: 10, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	pkts := []*codec.Packet{
		nil,
		{Type: codec.PictureI, GOPIndex: 0, GOPSize: 5, Size: 500},
		nil,
	}
	sel, err := g.Decide(pkts)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range sel {
		if i != 1 {
			t.Errorf("idle stream %d selected", i)
		}
	}
	if err := g.Feedback(sel, make([]bool, len(sel))); err != nil {
		t.Fatal(err)
	}
}

// mkStreams builds m synthetic cameras with anomalies for AD experiments.
func mkStreams(m int, seed int64) []*codec.Stream {
	streams := make([]*codec.Stream, m)
	for i := range streams {
		streams[i] = codec.NewStream(
			codec.SceneConfig{BaseActivity: 0.4, AnomalyRate: 40, AnomalyDuration: 30},
			codec.EncoderConfig{StreamID: i, GOPSize: 25},
			seed+int64(i)*101)
	}
	return streams
}

func runPolicy(t *testing.T, d Decider, m int, rounds int, seed int64) Result {
	t.Helper()
	sim := NewSimulation(mkStreams(m, seed), inferAD{}, decode.DefaultCosts)
	sim.SetDecider(d)
	res, err := sim.Run(rounds, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// inferAD is a tiny local alias to avoid repeated struct literals.
type inferAD = adTask

// mkHetStreams builds a fleet where half the cameras are busy (frequent
// person-count changes) and half are quiet — the regime where cross-stream
// coordination pays off (§3.2).
func mkHetStreams(m int, seed int64) []*codec.Stream {
	streams := make([]*codec.Stream, m)
	for i := range streams {
		sc := codec.SceneConfig{BaseActivity: 0.05, PersonRate: 0.02}
		if i%2 == 0 {
			sc = codec.SceneConfig{BaseActivity: 0.95, PersonRate: 1.2, PersonStay: 4}
		}
		streams[i] = codec.NewStream(sc,
			codec.EncoderConfig{StreamID: i, GOPSize: 25, GOPPhase: i * 7},
			seed+int64(i)*101)
	}
	return streams
}

func TestTemporalGateBeatsRandomOnBurstyPC(t *testing.T) {
	const m, rounds, budget = 20, 3000, 4.0
	run := func(d Decider) Result {
		sim := NewSimulation(mkHetStreams(m, 9000), infer.PersonCounting{}, decode.DefaultCosts)
		sim.SetDecider(d)
		res, err := sim.Run(rounds, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gate, err := NewGate(Config{Streams: m, Budget: budget, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	pg := run(gate)
	rnd := run(NewBaselineGate(m, decode.DefaultCosts, knapsack.NewRandom(1), nil, budget))
	if pg.BalancedAccuracy <= rnd.BalancedAccuracy {
		t.Errorf("temporal gate balanced accuracy %.3f must beat random %.3f",
			pg.BalancedAccuracy, rnd.BalancedAccuracy)
	}
}

func TestOracleDominatesEverything(t *testing.T) {
	const m, rounds, budget = 20, 1000, 5.0
	oracleSim := NewSimulation(mkStreams(m, 5000), adTask{}, decode.DefaultCosts)
	oracle := NewBaselineGate(m, decode.DefaultCosts, &knapsack.Greedy{}, oracleSim.OracleValues, budget)
	oracleSim.SetDecider(oracle)
	oracleRes, err := oracleSim.Run(rounds, 0)
	if err != nil {
		t.Fatal(err)
	}
	gate, err := NewGate(Config{Streams: m, Budget: budget, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	pg := runPolicy(t, gate, m, rounds, 5000)
	if oracleRes.Accuracy < pg.Accuracy-0.02 {
		t.Errorf("oracle %.3f should not lose to PacketGame %.3f", oracleRes.Accuracy, pg.Accuracy)
	}
	if oracleRes.Accuracy < 0.9 {
		t.Errorf("oracle accuracy %.3f suspiciously low", oracleRes.Accuracy)
	}
}

func TestSimulationValidation(t *testing.T) {
	sim := NewSimulation(mkStreams(2, 1), adTask{}, decode.DefaultCosts)
	if _, err := sim.Run(10, 0); err == nil {
		t.Error("run without decider must error")
	}
	g, err := NewGate(Config{Streams: 2, Budget: 5, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetDecider(g)
	if _, err := sim.Run(0, 0); err == nil {
		t.Error("zero rounds must error")
	}
}

func TestSimulationSegments(t *testing.T) {
	const m, rounds = 5, 120
	sim := NewSimulation(mkStreams(m, 77), adTask{}, decode.DefaultCosts)
	g, err := NewGate(Config{Streams: m, Budget: 3, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetDecider(g)
	res, err := sim.Run(rounds, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SegmentAccuracy) != 6 {
		t.Fatalf("segments = %d, want 6", len(res.SegmentAccuracy))
	}
	for i, a := range res.SegmentAccuracy {
		if a < 0 || a > 1 {
			t.Errorf("segment %d accuracy %v out of range", i, a)
		}
	}
	if res.FilterRate <= 0 || res.FilterRate >= 1 {
		t.Errorf("filter rate = %v", res.FilterRate)
	}
}

func TestBaselineGateStats(t *testing.T) {
	const m = 4
	b := NewBaselineGate(m, decode.DefaultCosts, &knapsack.RoundRobin{}, nil, 2)
	if b.Budget() != 2 {
		t.Errorf("budget = %v", b.Budget())
	}
	pkts := make([]*codec.Packet, m)
	for i := range pkts {
		pkts[i] = &codec.Packet{Type: codec.PictureI, GOPIndex: 0, GOPSize: 5, Size: 100}
	}
	sel, err := b.Decide(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Feedback(sel, make([]bool, len(sel))); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Rounds != 1 || st.Packets != m {
		t.Errorf("stats = %+v", st)
	}
}

func TestBaselineGateWrongLength(t *testing.T) {
	b := NewBaselineGate(3, decode.DefaultCosts, &knapsack.RoundRobin{}, nil, 2)
	if _, err := b.Decide(make([]*codec.Packet, 2)); err == nil {
		t.Error("length mismatch must error")
	}
}

func TestDependencyAwareAblation(t *testing.T) {
	// With dependency awareness off, the gate must still run and respect
	// the (bare-cost) budget.
	off := false
	g, err := NewGate(Config{Streams: 5, Budget: 3, UseTemporal: true, DependencyAware: &off})
	if err != nil {
		t.Fatal(err)
	}
	streams := mkStreams(5, 31)
	for round := 0; round < 50; round++ {
		pkts := make([]*codec.Packet, 5)
		for i, st := range streams {
			pkts[i] = st.Next()
		}
		sel, err := g.Decide(pkts)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Feedback(sel, make([]bool, len(sel))); err != nil {
			t.Fatal(err)
		}
	}
	if g.Stats().Decoded == 0 {
		t.Error("no packets decoded")
	}
}

func TestGateTraceRecordsDecisions(t *testing.T) {
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	g, err := NewGate(Config{Streams: 3, Budget: 6, UseTemporal: true, Trace: tw})
	if err != nil {
		t.Fatal(err)
	}
	streams := mkStreams(3, 77)
	const rounds = 20
	for r := 0; r < rounds; r++ {
		pkts := make([]*codec.Packet, 3)
		for i, st := range streams {
			pkts[i] = st.Next()
		}
		sel, err := g.Decide(pkts)
		if err != nil {
			t.Fatal(err)
		}
		nec := make([]bool, len(sel))
		for k := range nec {
			nec[k] = k%2 == 0
		}
		if err := g.Feedback(sel, nec); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := trace.Summarize(trace.NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rounds != rounds {
		t.Errorf("trace rounds = %d, want %d", sum.Rounds, rounds)
	}
	if sum.Packets != 3*rounds {
		t.Errorf("trace packets = %d, want %d", sum.Packets, 3*rounds)
	}
	if sum.Selected == 0 || sum.Selected != g.Stats().Decoded {
		t.Errorf("trace selected = %d, gate decoded = %d", sum.Selected, g.Stats().Decoded)
	}
	if sum.BudgetUtilization <= 0 || sum.BudgetUtilization > 1 {
		t.Errorf("budget utilization = %v", sum.BudgetUtilization)
	}
}
