package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/infer"
	"packetgame/internal/pipeline"
	"packetgame/internal/predictor"
)

// scaleAllocCeiling bounds the steady-state heap allocations per gating
// round in the churn sweep. The incremental hot loop itself is designed to
// allocate nothing once scratch and free lists are warm; the ceiling leaves
// headroom for runtime background noise (finalizer and timer bookkeeping)
// that MemStats deltas pick up in a live process.
const scaleAllocCeiling = 32

// Scale benchmarks the churn-scaled Decide path at fleet sizes up to
// m=100k: every stream delivers a packet every round, but only a `churn`
// fraction of the fleet varies its packet sizes — the rest repeat their
// metadata exactly, so their feature windows freeze and the gate serves
// them from the score cache instead of re-running the predictor. Per-round
// cost should therefore track churn, not m; a dense recompute (same
// decisions bit-for-bit) would pay the full forward regardless. At full scale the experiment asserts the headline acceptance
// number — at m=100k a 1%-churn round is ≥50× faster than a 100%-churn
// round — plus the steady-state allocation ceiling in every cell, and
// writes BENCH_scale.json.
func Scale(o Options) error {
	o = o.withDefaults()
	var report scaleReport

	o.printf("=== Churn-scaled Decide: content churn sweep (all m streams active) ===\n")
	o.printf("%-8s %-7s %12s %14s %12s %10s\n", "m", "churn", "ns/round", "rounds/s", "mallocs/rd", "cache-hit")
	for _, m := range []int{o.scaled(1000, 64), o.scaled(10000, 128), o.scaled(100000, 256)} {
		nsByChurn := map[float64]float64{}
		for _, churn := range []float64{0.01, 0.10, 1.00} {
			cell, err := timeScaleCell(m, churn, o.Seed)
			if err != nil {
				return err
			}
			nsByChurn[churn] = cell.NsPerRound
			report.Cells = append(report.Cells, cell)
			o.printf("%-8d %-7s %12.0f %14.1f %12.1f %9.1f%%\n",
				m, fmt.Sprintf("%.0f%%", churn*100), cell.NsPerRound, 1e9/cell.NsPerRound, cell.MallocsPerRound, cell.CacheHitRate*100)
			if cell.MallocsPerRound > scaleAllocCeiling {
				return fmt.Errorf("scale: m=%d churn=%.0f%% allocates %.1f times/round, ceiling %d",
					m, churn*100, cell.MallocsPerRound, scaleAllocCeiling)
			}
		}
		sp := scaleSpeedup{M: m, LowChurnSpeedup: nsByChurn[1.00] / nsByChurn[0.01]}
		report.Speedups = append(report.Speedups, sp)
		o.printf("%-8d 1%% vs 100%% churn: %.1fx faster per round\n", m, sp.LowChurnSpeedup)
		if o.Scale >= 1 && m >= 100000 && sp.LowChurnSpeedup < 50 {
			return fmt.Errorf("scale: m=%d low-churn speedup %.1fx below the 50x acceptance floor", m, sp.LowChurnSpeedup)
		}
	}

	o.printf("\n=== Idle-fleet activity sweep (only an activity slice delivers packets) ===\n")
	o.printf("%-8s %-9s %12s %14s %12s %12s\n", "m", "activity", "ns/round", "rounds/s", "mallocs/rd", "ns/active")
	for _, m := range []int{o.scaled(1000, 64), o.scaled(10000, 128), o.scaled(100000, 256)} {
		nsByAct := map[float64]float64{}
		for _, activity := range []float64{0.01, 0.10, 1.00} {
			cell, err := timeIdleCell(m, activity, o.Seed)
			if err != nil {
				return err
			}
			nsByAct[activity] = cell.NsPerRound
			report.Idle = append(report.Idle, cell)
			active := float64(int(float64(m) * activity))
			if active < 1 {
				active = 1
			}
			o.printf("%-8d %-9s %12.0f %14.1f %12.1f %12.1f\n",
				m, fmt.Sprintf("%.0f%%", activity*100), cell.NsPerRound, 1e9/cell.NsPerRound,
				cell.MallocsPerRound, cell.NsPerRound/active)
			if cell.MallocsPerRound > scaleAllocCeiling {
				return fmt.Errorf("scale: m=%d activity=%.0f%% allocates %.1f times/round, ceiling %d",
					m, activity*100, cell.MallocsPerRound, scaleAllocCeiling)
			}
		}
		// The O(m) residue of a sparse round: a purely O(active) gate would
		// make a 1%-activity round ~100x cheaper than a full one; the gap
		// from that ideal is the per-round fixed cost that still scales
		// with the configured fleet size.
		o.printf("%-8d 1%% vs 100%% activity: %.1fx cheaper per round (ideal 100x)\n",
			m, nsByAct[1.00]/nsByAct[0.01])
	}

	o.printf("\n=== End-to-end pipeline: dense vs sparse round representation (1%% activity) ===\n")
	o.printf("%-8s %-7s %12s %14s %14s %12s\n", "m", "repr", "ns/round", "alloc B/rd", "mallocs/rd", "decoded")
	for _, m := range []int{o.scaled(10000, 128), o.scaled(100000, 256)} {
		var legs [2]scaleE2ECell
		for li, dense := range []bool{true, false} {
			cell, err := timeE2ELeg(m, 0.01, dense, o.Seed)
			if err != nil {
				return err
			}
			legs[li] = cell
			report.E2E = append(report.E2E, cell)
			repr := "sparse"
			if dense {
				repr = "dense"
			}
			o.printf("%-8d %-7s %12.0f %14.0f %14.1f %12d\n",
				m, repr, cell.NsPerRound, cell.AllocBytesPerRound, cell.MallocsPerRound, cell.Decoded)
		}
		if legs[0].Decoded != legs[1].Decoded {
			return fmt.Errorf("scale e2e: m=%d dense decoded %d, sparse %d — representations diverged",
				m, legs[0].Decoded, legs[1].Decoded)
		}
		sp := scaleE2ESpeedup{
			M:            m,
			WallSpeedup:  legs[0].NsPerRound / legs[1].NsPerRound,
			AllocSpeedup: legs[0].AllocBytesPerRound / legs[1].AllocBytesPerRound,
		}
		report.E2ESpeedups = append(report.E2ESpeedups, sp)
		o.printf("%-8d sparse vs dense: %.1fx faster, %.1fx fewer allocated bytes per round\n",
			m, sp.WallSpeedup, sp.AllocSpeedup)
		if o.Scale >= 1 && m >= 100000 {
			if sp.WallSpeedup < 10 {
				return fmt.Errorf("scale e2e: m=%d sparse wall speedup %.1fx below the 10x acceptance floor", m, sp.WallSpeedup)
			}
			if sp.AllocSpeedup < 10 {
				return fmt.Errorf("scale e2e: m=%d sparse alloc speedup %.1fx below the 10x acceptance floor", m, sp.AllocSpeedup)
			}
		}
	}

	if o.Scale >= 1 {
		report.Meta = benchMeta("scale")
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_scale.json", append(buf, '\n'), 0o644); err != nil {
			return err
		}
		o.printf("\nwrote BENCH_scale.json\n")
	} else {
		o.printf("\n(scale %.2f < 1: BENCH_scale.json not written)\n", o.Scale)
	}
	return nil
}

type scaleCell struct {
	M               int     `json:"m"`
	Churn           float64 `json:"churn,omitempty"`
	Activity        float64 `json:"activity,omitempty"`
	NsPerRound      float64 `json:"ns_per_round"`
	RoundsPerSec    float64 `json:"rounds_per_sec"`
	MallocsPerRound float64 `json:"mallocs_per_round"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
}

type scaleSpeedup struct {
	M               int     `json:"m"`
	LowChurnSpeedup float64 `json:"speedup_1pct_vs_100pct"`
}

type scaleE2ECell struct {
	M                  int     `json:"m"`
	Activity           float64 `json:"activity"`
	Dense              bool    `json:"dense"`
	NsPerRound         float64 `json:"ns_per_round"`
	AllocBytesPerRound float64 `json:"alloc_bytes_per_round"`
	MallocsPerRound    float64 `json:"mallocs_per_round"`
	Decoded            int64   `json:"decoded"`
}

type scaleE2ESpeedup struct {
	M            int     `json:"m"`
	WallSpeedup  float64 `json:"wall_speedup"`
	AllocSpeedup float64 `json:"alloc_speedup"`
}

type scaleReport struct {
	Meta        BenchMeta         `json:"meta"`
	Cells       []scaleCell       `json:"cells"`
	Idle        []scaleCell       `json:"idle_cells"`
	Speedups    []scaleSpeedup    `json:"speedups"`
	E2E         []scaleE2ECell    `json:"e2e_cells"`
	E2ESpeedups []scaleE2ESpeedup `json:"e2e_speedups"`
}

// timeScaleCell measures one (m, churn) cell: mean wall-clock nanoseconds
// and heap mallocs per Decide+Feedback round at steady state. The gate is
// the contextual-only configuration (no temporal estimator, no exploration
// bonus, flat costs) so the only per-round signal is the feature window —
// exactly the state the score cache keys on; churned streams draw a fresh
// size every round, the rest repeat theirs verbatim.
func timeScaleCell(m int, churn float64, seed int64) (scaleCell, error) {
	pcfg := predictor.Config{UseIView: true, UsePView: true, Seed: seed}
	p, err := predictor.New(pcfg)
	if err != nil {
		return scaleCell{}, err
	}
	no := false
	g, err := core.NewGate(core.Config{
		Streams: m, Budget: float64(m) / 25, Predictor: p,
		UseTemporal: false, Explore: &no, DependencyAware: &no,
	})
	if err != nil {
		return scaleCell{}, err
	}

	// Persistent packet structs: only the churned prefix mutates its size
	// between rounds, everything else repeats its metadata exactly.
	pkts := make([]*codec.Packet, m)
	nonIdle := make([]int32, m)
	for i := range pkts {
		pkts[i] = &codec.Packet{StreamID: i, Type: codec.PictureP, Size: 1000 + i%777, GOPSize: 25, GOPIndex: 1}
		nonIdle[i] = int32(i)
	}
	churned := int(float64(m) * churn)
	if churned < 1 {
		churned = 1
	}
	lcg := uint64(seed)*6364136223846793005 + 1442695040888963407
	mutate := func() {
		for i := 0; i < churned; i++ {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			pkts[i].Size = 200 + int(lcg>>40)%60000
		}
	}

	necessary := make([]bool, m)
	var sel []int
	oneRound := func() error {
		mutate()
		var err error
		sel, err = g.DecideRoundAppend(pkts, nonIdle, sel[:0])
		if err != nil {
			return err
		}
		return g.Feedback(sel, necessary[:len(sel)])
	}

	// Warmup: saturate the double-write feature rings (w+1 identical pushes
	// freeze an epoch) and the gate's scratch and free lists.
	for r := 0; r < p.Config().Window+4; r++ {
		if err := oneRound(); err != nil {
			return scaleCell{}, err
		}
	}
	hits0 := g.Incremental()

	rounds := 400000 / m
	if rounds < 4 {
		rounds = 4
	}
	if rounds > 200 {
		rounds = 200
	}
	runtime.GC()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		if err := oneRound(); err != nil {
			return scaleCell{}, err
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&msAfter)
	hits1 := g.Incremental()

	cell := scaleCell{
		M:               m,
		Churn:           churn,
		NsPerRound:      float64(elapsed.Nanoseconds()) / float64(rounds),
		MallocsPerRound: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(rounds),
	}
	cell.RoundsPerSec = 1e9 / cell.NsPerRound
	if scored := hits1.Scored - hits0.Scored; scored > 0 {
		cell.CacheHitRate = float64(hits1.CacheHits-hits0.CacheHits) / float64(scored)
	}
	return cell, nil
}

// timeIdleCell measures one (m, activity) cell of the sparse-fleet sweep:
// each round only an `activity` slice of the fleet delivers a packet — the
// window of active streams rotates across the fleet so every stream takes
// turns — and the rest are idle (no packet, not in nonIdle). The gate
// promises O(non-idle) rounds when handed the non-idle list; this cell
// makes the remaining O(m) residue measurable as ns/active versus the
// dense 100% row.
func timeIdleCell(m int, activity float64, seed int64) (scaleCell, error) {
	pcfg := predictor.Config{UseIView: true, UsePView: true, Seed: seed}
	p, err := predictor.New(pcfg)
	if err != nil {
		return scaleCell{}, err
	}
	active := int(float64(m) * activity)
	if active < 1 {
		active = 1
	}
	budget := float64(active) / 25
	if budget < 4 {
		budget = 4
	}
	no := false
	g, err := core.NewGate(core.Config{
		Streams: m, Budget: budget, Predictor: p,
		UseTemporal: false, Explore: &no, DependencyAware: &no,
	})
	if err != nil {
		return scaleCell{}, err
	}

	// One persistent packet per stream; the round view holds pool[i] for
	// the active window and nil everywhere else.
	pool := make([]*codec.Packet, m)
	for i := range pool {
		pool[i] = &codec.Packet{StreamID: i, Type: codec.PictureP, Size: 1000 + i%777, GOPSize: 25, GOPIndex: 1}
	}
	pkts := make([]*codec.Packet, m)
	nonIdle := make([]int32, 0, active)
	start := 0
	lcg := uint64(seed)*6364136223846793005 + 1442695040888963407

	necessary := make([]bool, m)
	var sel []int
	oneRound := func() error {
		for _, i := range nonIdle {
			pkts[i] = nil
		}
		nonIdle = nonIdle[:0]
		// Active window [start, start+active) mod m, listed ascending:
		// the wrapped run first, then the tail run.
		if end := start + active - m; end > 0 {
			for i := 0; i < end; i++ {
				nonIdle = append(nonIdle, int32(i))
			}
			for i := start; i < m; i++ {
				nonIdle = append(nonIdle, int32(i))
			}
		} else {
			for i := start; i < start+active; i++ {
				nonIdle = append(nonIdle, int32(i))
			}
		}
		for _, i := range nonIdle {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			pool[i].Size = 200 + int(lcg>>40)%60000
			pkts[i] = pool[i]
		}
		start = (start + active) % m
		var err error
		sel, err = g.DecideRoundAppend(pkts, nonIdle, sel[:0])
		if err != nil {
			return err
		}
		return g.Feedback(sel, necessary[:len(sel)])
	}

	for r := 0; r < p.Config().Window+4; r++ {
		if err := oneRound(); err != nil {
			return scaleCell{}, err
		}
	}

	rounds := 400000 / m
	if rounds < 4 {
		rounds = 4
	}
	if rounds > 200 {
		rounds = 200
	}
	runtime.GC()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		if err := oneRound(); err != nil {
			return scaleCell{}, err
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&msAfter)

	cell := scaleCell{
		M:               m,
		Activity:        activity,
		NsPerRound:      float64(elapsed.Nanoseconds()) / float64(rounds),
		MallocsPerRound: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(rounds),
	}
	cell.RoundsPerSec = 1e9 / cell.NsPerRound
	return cell, nil
}

// e2eSource is the end-to-end leg's synthetic fleet at its sparse steady
// state: a fixed `active` slice of the fleet delivers a packet with frozen
// metadata every round (so the gate serves it from the score cache) and the
// rest are idle. The source itself is O(1) per round in both views — the
// dense nil-padded array and the sparse round are built once — so any O(m)
// cost a leg observes comes from the engine's round representation, not
// from the source. Packets are never mutated, making the shared references
// safe while rounds overlap in the pipelined engine.
type e2eSource struct {
	pkts    []*codec.Packet // dense round view (nil-padded)
	nonIdle []int32
	round   codec.Round
}

func newE2ESource(m int, activity float64, seed int64) *e2eSource {
	active := int(float64(m) * activity)
	if active < 1 {
		active = 1
	}
	// One valid payload shared by every packet: decode only reads the scene
	// header, and the scene payload is immutable once encoded.
	st := codec.NewStream(
		codec.SceneConfig{BaseActivity: 0.5, PersonRate: 0.4},
		codec.EncoderConfig{StreamID: 0, GOPSize: 12}, seed)
	var payload []byte
	for payload == nil {
		if p := st.Next(); p != nil {
			payload = p.Payload
		}
	}
	s := &e2eSource{pkts: make([]*codec.Packet, m)}
	s.round.Reset(m)
	for i := 0; i < active; i++ {
		p := &codec.Packet{StreamID: i, Type: codec.PictureP, Seq: 1, PTS: 40,
			Size: 1000 + i%777, GOPSize: 25, GOPIndex: 1, Payload: payload}
		s.pkts[i] = p
		s.nonIdle = append(s.nonIdle, int32(i))
		s.round.Append(int32(i), p)
	}
	return s
}

// NextRound implements pipeline.RoundSource (the dense leg's entry).
func (s *e2eSource) NextRound() ([]*codec.Packet, error) { return s.pkts, nil }

// NextRoundSparse implements pipeline.SparseRoundSource (the sparse leg's).
func (s *e2eSource) NextRoundSparse() (*codec.Round, error) { return &s.round, nil }

// Truth implements pipeline.RoundSource: the perf leg carries no ground
// truth (accuracy is not what it measures).
func (s *e2eSource) Truth(i int) (codec.Scene, bool) { return codec.Scene{}, false }

// NonIdle implements pipeline.RoundLister.
func (s *e2eSource) NonIdle() []int32 { return s.nonIdle }

// timeE2ELeg runs the full pipelined engine — producer, gate, decode pool,
// settle — over the rotating-activity source in one of the two round
// representations and measures steady-state per-round wall time and heap
// traffic. The dense leg pins Config.DenseRounds, so the engine pulls
// nil-padded O(m) rounds and settles with the dense walks; decisions are
// bit-identical either way (asserted via the decode counters), so the delta
// is purely the representation.
func timeE2ELeg(m int, activity float64, dense bool, seed int64) (scaleE2ECell, error) {
	pcfg := predictor.Config{UseIView: true, UsePView: true, Seed: seed}
	p, err := predictor.New(pcfg)
	if err != nil {
		return scaleE2ECell{}, err
	}
	active := int(float64(m) * activity)
	if active < 1 {
		active = 1
	}
	budget := float64(active) / 25
	if budget < 4 {
		budget = 4
	}
	no := false
	g, err := core.NewGate(core.Config{
		Streams: m, Budget: budget, Predictor: p,
		UseTemporal: false, Explore: &no, DependencyAware: &no,
	})
	if err != nil {
		return scaleE2ECell{}, err
	}
	eng, err := pipeline.New(pipeline.Config{
		Source:      newE2ESource(m, activity, seed),
		Gate:        g,
		Task:        infer.PersonCounting{},
		Workers:     4,
		MaxInFlight: 2,
		Pipelined:   true,
		DenseRounds: dense,
	})
	if err != nil {
		return scaleE2ECell{}, err
	}

	// Warmup: fill the feature windows and the engine's roundWork free list.
	if _, err := eng.Run(p.Config().Window + 12); err != nil {
		return scaleE2ECell{}, err
	}

	rounds := 120
	runtime.GC()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	rep, err := eng.Run(rounds)
	if err != nil {
		return scaleE2ECell{}, err
	}
	runtime.ReadMemStats(&msAfter)

	return scaleE2ECell{
		M:                  m,
		Activity:           activity,
		Dense:              dense,
		NsPerRound:         float64(rep.Elapsed.Nanoseconds()) / float64(rounds),
		AllocBytesPerRound: float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(rounds),
		MallocsPerRound:    float64(msAfter.Mallocs-msBefore.Mallocs) / float64(rounds),
		Decoded:            rep.Decoded,
	}, nil
}
