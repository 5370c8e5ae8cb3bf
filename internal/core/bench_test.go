package core

import (
	"testing"

	"packetgame/internal/codec"
	"packetgame/internal/predictor"
)

// The Decide-round benchmarks measure the gating hot loop in isolation:
// packet rounds are pregenerated so the codec substrate stays off the
// clock, and feedback reuses one necessary mask.

func benchGate(tb testing.TB, m int) (*Gate, [][]*codec.Packet) {
	tb.Helper()
	p, err := predictor.New(predictor.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	g, err := NewGate(Config{
		Streams: m, Budget: float64(m) / 25, Predictor: p,
		UseTemporal: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	const rounds = 32
	streams := make([]*codec.Stream, m)
	for i := range streams {
		streams[i] = codec.NewStream(codec.SceneConfig{BaseActivity: 0.4},
			codec.EncoderConfig{StreamID: i, GOPSize: 25}, int64(i))
	}
	pre := make([][]*codec.Packet, rounds)
	for r := range pre {
		pre[r] = make([]*codec.Packet, m)
		for j, st := range streams {
			pre[r][j] = st.Next()
		}
	}
	return g, pre
}

func benchDecideRound(b *testing.B, m int) {
	b.Helper()
	g, pre := benchGate(b, m)
	var sel []int
	necessary := make([]bool, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		sel, err = g.DecideRoundAppend(pre[i%len(pre)], nil, sel[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := g.FeedbackExt(sel, necessary[:len(sel)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecideRound64(b *testing.B)   { benchDecideRound(b, 64) }
func BenchmarkDecideRound256(b *testing.B)  { benchDecideRound(b, 256) }
func BenchmarkDecideRound1024(b *testing.B) { benchDecideRound(b, 1024) }

// TestDecideRoundAllocCeiling is the verify-gate smoke bench: after warmup,
// a steady-state Decide+Feedback round must stay under a small allocs/op
// ceiling (sync.Pool churn and map internals give a little slack; the target
// is "no per-stream or per-buffer allocation scales with m").
func TestDecideRoundAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	const m = 128
	g, pre := benchGate(t, m)
	var sel []int
	necessary := make([]bool, m)
	round := 0
	run := func() {
		var err error
		sel, err = g.DecideRoundAppend(pre[round%len(pre)], nil, sel[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := g.FeedbackExt(sel, necessary[:len(sel)], nil); err != nil {
			t.Fatal(err)
		}
		round++
	}
	for i := 0; i < 8; i++ {
		run() // warm scratch, pools, and free lists
	}
	allocs := testing.AllocsPerRun(24, run)
	const ceiling = 8
	if allocs > ceiling {
		t.Fatalf("steady-state Decide round allocates %.1f times/op, ceiling %d", allocs, ceiling)
	}
}

// TestFastPathMatchesReferenceDecisions runs a gate on the compiled float32
// forward and one on the float64 autodiff reference over identical packet
// rounds and checks the decisions agree in aggregate: the float32 fast path
// may flip exact near-ties in greedy ordering, so we bound the per-round
// symmetric-difference rate rather than demand identity.
func TestFastPathMatchesReferenceDecisions(t *testing.T) {
	const m, rounds = 96, 60
	fast, pre := benchGate(t, m)
	ref, _ := benchGate(t, m)
	ref.useReferenceForward()
	necessary := make([]bool, m)
	var diff, total int
	selB := make([]bool, m)
	for r := 0; r < rounds; r++ {
		fs, err := fast.Decide(pre[r%len(pre)])
		if err != nil {
			t.Fatal(err)
		}
		rs, err := ref.Decide(pre[r%len(pre)])
		if err != nil {
			t.Fatal(err)
		}
		for i := range selB {
			selB[i] = false
		}
		for _, i := range fs {
			selB[i] = true
		}
		for _, i := range rs {
			if !selB[i] {
				diff++
			} else {
				selB[i] = false
			}
		}
		for _, on := range selB {
			if on {
				diff++
			}
		}
		total += len(rs)
		if err := fast.Feedback(fs, necessary[:len(fs)]); err != nil {
			t.Fatal(err)
		}
		if err := ref.Feedback(rs, necessary[:len(rs)]); err != nil {
			t.Fatal(err)
		}
	}
	if total == 0 {
		t.Fatal("reference gate selected nothing")
	}
	// The two forwards round differently, so some confidence must differ:
	// otherwise both gates ran the same forward and the check is vacuous.
	same := true
	for i := 0; i < m && same; i++ {
		same = fast.Confidence(i) == ref.Confidence(i)
	}
	if same {
		t.Fatal("reference gate reproduced every fast-path confidence bit for bit")
	}
	if rate := float64(diff) / float64(total); rate > 0.05 {
		t.Fatalf("fast vs reference decisions diverge on %.1f%% of selections (diff %d / %d)", rate*100, diff, total)
	}
}
