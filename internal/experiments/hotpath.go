package experiments

import (
	"encoding/json"
	"os"
	"time"

	"packetgame/internal/accel"
	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/predictor"
)

// Hotpath benchmarks the gating hot loop: full Decide+Feedback rounds swept
// over fleet sizes, plus the compiled forward-pass micro leg (compiled
// float32 graph versus the float64 autodiff reference) as a measured
// accelerator. At full scale (-scale 1) it writes the results to
// BENCH_hotpath.json so they are recorded alongside the repo. (An int8-quantized leg used to be measured
// here too; it held at ~0.28× the float32 kernels and the quantized path
// was removed — see DESIGN.md for the numbers and rationale.)
func Hotpath(o Options) error {
	o = o.withDefaults()
	var report hotpathReport

	o.printf("=== Hot path: Decide+Feedback rounds ===\n")
	o.printf("%-7s %14s %14s\n", "m", "rounds/s", "ns/round")
	for _, m := range []int{o.scaled(64, 8), o.scaled(256, 16), o.scaled(1024, 32)} {
		rounds := 16384 / m
		if rounds < 12 {
			rounds = 12
		}
		ns, err := timeDecideRounds(m, rounds, o.Seed)
		if err != nil {
			return err
		}
		e := hotpathEntry{M: m, RoundsPerSec: 1e9 / ns, NsPerRound: ns}
		report.DecideRounds = append(report.DecideRounds, e)
		o.printf("%-7d %14.1f %14.0f\n", m, e.RoundsPerSec, e.NsPerRound)
	}

	// Forward-pass micro leg as a measured accelerator: the compiled float32
	// graph against the autodiff reference. This plugs into the Table 5
	// throughput model exactly like the paper's constant-factor TensorRT
	// entry, but with the speedup measured on this host rather than assumed.
	p, err := predictor.New(predictor.DefaultConfig())
	if err != nil {
		return err
	}
	n := o.scaled(256, 16)
	feats := benchFeatures(p.Config(), n, o.Seed)
	out := make([]float64, n)
	iters := o.scaled(30, 3)
	legs := []struct {
		name       string
		base, fast func()
	}{
		{"compiled-f32-vs-reference",
			func() { p.PredictBatch(feats) },
			func() {
				if err := p.PredictInto(feats, out); err != nil {
					panic(err)
				}
			}},
	}
	o.printf("\n=== Forward micro (batch %d, measured accel.Accelerator speedups) ===\n", n)
	for _, leg := range legs {
		acc, err := accel.Measure(leg.name, iters, leg.base, leg.fast)
		if err != nil {
			return err
		}
		report.ForwardMicro = append(report.ForwardMicro, hotpathForward{Name: acc.Name, Speedup: acc.Speedup})
		o.printf("%-28s %9.2fx\n", acc.Name, acc.Speedup)
	}

	if o.Scale >= 1 {
		report.Meta = benchMeta("hotpath")
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_hotpath.json", append(buf, '\n'), 0o644); err != nil {
			return err
		}
		o.printf("\nwrote BENCH_hotpath.json\n")
	} else {
		o.printf("\n(scale %.2f < 1: BENCH_hotpath.json not written)\n", o.Scale)
	}
	return nil
}

type hotpathEntry struct {
	M            int     `json:"m"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	NsPerRound   float64 `json:"ns_per_round"`
}

type hotpathForward struct {
	Name    string  `json:"name"`
	Speedup float64 `json:"speedup"`
}

type hotpathReport struct {
	Meta         BenchMeta        `json:"meta"`
	DecideRounds []hotpathEntry   `json:"decide_rounds"`
	ForwardMicro []hotpathForward `json:"forward_micro"`
}

// timeDecideRounds measures the mean wall-clock nanoseconds of one
// Decide+Feedback round over pregenerated packets (codec off the clock),
// after a short warmup that fills windows, pools, and free lists.
func timeDecideRounds(m, rounds int, seed int64) (float64, error) {
	p, err := predictor.New(predictor.DefaultConfig())
	if err != nil {
		return 0, err
	}
	g, err := core.NewGate(core.Config{
		Streams: m, Budget: float64(m) / 25, Predictor: p,
		UseTemporal: true,
	})
	if err != nil {
		return 0, err
	}
	const pre = 24
	streams := make([]*codec.Stream, m)
	for i := range streams {
		streams[i] = codec.NewStream(codec.SceneConfig{BaseActivity: 0.4},
			codec.EncoderConfig{StreamID: i, GOPSize: 25}, seed+int64(i)*7919)
	}
	pkts := make([][]*codec.Packet, pre)
	for r := range pkts {
		pkts[r] = make([]*codec.Packet, m)
		for j, st := range streams {
			pkts[r][j] = st.Next()
		}
	}
	necessary := make([]bool, m)
	var sel []int
	oneRound := func(r int) error {
		var err error
		sel, err = g.DecideRoundAppend(pkts[r%pre], nil, sel[:0])
		if err != nil {
			return err
		}
		return g.FeedbackExt(sel, necessary[:len(sel)], nil)
	}
	for r := 0; r < 8; r++ {
		if err := oneRound(r); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		if err := oneRound(r); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(rounds), nil
}

// benchFeatures builds a deterministic feature batch for the forward micro.
func benchFeatures(cfg predictor.Config, n int, seed int64) []predictor.Features {
	w := predictor.NewWindow(cfg.Window)
	feats := make([]predictor.Features, n)
	slab := &predictor.Slab{}
	for i := range feats {
		size := 800 + (i*int(seed%97)+i*i)%40000
		typ := codec.PictureP
		if i%25 == 0 {
			typ = codec.PictureI
		}
		w.Push(&codec.Packet{Type: typ, Size: size})
		feats[i] = slab.CloneInto(w.Features(float64(i%10) / 10))
	}
	return feats
}
