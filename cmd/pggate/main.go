// Command pggate runs the gated video-inference pipeline: it ingests a
// camera fleet (local synthetic fleet or a PGSP server), gates packets
// before decoding under a budget, decodes the survivors, runs the inference
// task, and reports the end-to-end efficiency.
//
// Usage:
//
//	pggate -streams 32 -budget 8 -task PC -rounds 2000
//	pggate -connect 127.0.0.1:9560 -budget 8 -task AD -weights ad.pgw
//	pggate -streams 32 -budget 8 -policy roundrobin    # baseline
//	pggate -slo 50ms -priorities fd:0,ad:1,pc:2,sr:3   # governed mixed fleet
//	pggate -join 127.0.0.1:9570 -name w0               # cluster data-plane worker
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"packetgame/internal/capture"
	"packetgame/internal/cluster"
	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/fault"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/metrics"
	"packetgame/internal/overload"
	"packetgame/internal/pipeline"
	"packetgame/internal/predictor"
	"packetgame/internal/stream"
)

func main() {
	var (
		connect   = flag.String("connect", "", "PGSP server address (empty = local synthetic fleet)")
		streams   = flag.Int("streams", 16, "local fleet size (ignored with -connect)")
		rounds    = flag.Int("rounds", 2000, "rounds to process (0 = until source ends)")
		budget    = flag.Float64("budget", 8, "decode budget per round (P-frame units)")
		taskName  = flag.String("task", "PC", "inference task: PC, AD, SR, FD")
		weights   = flag.String("weights", "", "predictor weight file from pgtrain (empty = temporal only)")
		window    = flag.Int("window", 5, "temporal window length")
		policy    = flag.String("policy", "packetgame", "packetgame, roundrobin, or random")
		workers   = flag.Int("workers", 4, "decode workers")
		seed      = flag.Int64("seed", 1, "random seed")
		pipelined = flag.Bool("pipelined", false, "overlap rounds through the staged engine")
		inflight  = flag.Int("inflight", 1, "feedback lag k: rounds in flight (pipelined) / ack deferral (sequential)")
		fresh     = flag.Bool("fresh", false, "apply feedback on round completion instead of the deterministic lag schedule (pipelined only)")
		burn      = flag.Int64("burn", 0, "CPU nanoseconds burned per decode-cost unit (software decoder model)")
		latency   = flag.Int64("latency", 0, "wall-clock nanoseconds per decode-cost unit (offloaded decoder model)")
		faults    = flag.String("faults", "", "fault profile: none, light, chaos, heavy, or key=value list (arms circuit breakers)")
		slo       = flag.Duration("slo", 0, "per-round latency SLO arming the overload governor (0 = ungoverned; packetgame policy only)")
		deadline  = flag.Duration("deadline", 0, "round decode deadline: rounds still pending settle with Deferred feedback (pipelined only, 0 = off)")
		prioSpec  = flag.String("priorities", "", "admission tiers as task:tier pairs, e.g. fd:0,ad:1,pc:2,sr:3 — stream i runs (and is tiered by) entry i mod n; packetgame policy only")
		record    = flag.String("record", "", "record the session (packets + decision trace) to this .pgc capture file")
		recStep   = flag.Duration("record-step", 0, "virtual per-round timestamp step for -record (0 = wall-clock arrival offsets)")
		join      = flag.String("join", "", "pgcoord address: run as a cluster data-plane worker (most other flags come from the coordinator)")
		name      = flag.String("name", "", "worker name reported to the coordinator (with -join)")
		orphan    = flag.Int64("orphan", 0, "orphan mode: when the coordinator dies, gate this many rounds locally (temporal-only, last granted budget) instead of re-homing, then reconcile with the elected standby; -streams/-seed must match the coordinator's fleet")
	)
	flag.Parse()

	// Cluster worker mode: the coordinator owns the fleet source, budget,
	// policy, and round loop; this process runs the data-plane gate over its
	// hash arc until the coordinator says goodbye.
	if *join != "" {
		wname := *name
		if wname == "" {
			wname = fmt.Sprintf("pggate-%d", os.Getpid())
		}
		wopts := cluster.WorkerOptions{Name: wname, DecodeWorkers: *workers}
		if *orphan > 0 {
			// Orphan mode keeps gating locally across a coordinator death, so
			// it needs its own identically-seeded copy of the fleet (the same
			// construction pgcoord uses) to read packet metadata from.
			fleet := make([]*codec.Stream, *streams)
			for i := range fleet {
				fleet[i] = codec.NewStream(
					codec.SceneConfig{BaseActivity: 0.4, PersonRate: 0.3, AnomalyRate: 30,
						FireRate: 30, QualityDropRate: 30},
					codec.EncoderConfig{StreamID: i, GOPSize: 25},
					*seed+int64(i)*7919)
			}
			wopts.Orphan = &cluster.OrphanOptions{
				Source: pipeline.NewLocalSource(fleet, 0),
				Rounds: *orphan,
			}
		}
		w, err := cluster.Dial(*join, wopts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pggate: joined cluster at %s as worker %d (%s)\n", *join, w.ID(), wname)
		if err := w.Wait(); err != nil {
			fatal(err)
		}
		st := w.Gate().Stats()
		fmt.Printf("pggate: session over: %d rounds, %d decoded on this worker\n", st.Rounds, st.Decoded)
		if or := w.Orphan(); or.Entered {
			fmt.Printf("pggate: orphan mode: %d local rounds, %d decoded, reconciled %v\n",
				or.Rounds, or.Decoded, or.Reconciled)
		}
		return
	}

	task, err := infer.ByName(*taskName)
	if err != nil {
		fatal(err)
	}

	// Overload controls. -priorities stripes a mixed-task fleet across
	// admission tiers; -slo arms the AIMD budget governor and degradation
	// ladder. Both act through the tiered gate, so they require the
	// packetgame policy.
	if (*slo != 0 || *prioSpec != "") && *policy != "packetgame" {
		fatal(fmt.Errorf("-slo and -priorities require -policy packetgame (the baselines have no admission control)"))
	}
	var prioTasks []infer.Task
	var prioTiers []uint8
	if *prioSpec != "" {
		prioTasks, prioTiers, err = parsePriorities(*prioSpec)
		if err != nil {
			fatal(err)
		}
	}
	var gov *overload.Governor
	var ostats *metrics.OverloadStats
	if *slo != 0 {
		ostats = &metrics.OverloadStats{}
		gov, err = overload.NewGovernor(overload.Config{SLO: *slo, Budget: *budget, Stats: ostats})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pggate: governor armed: SLO %v on nominal budget %.1f\n", *slo, *budget)
	}

	// Faults. A named (or custom) profile injects deterministic faults at the
	// packet source, the decoder, and — with -connect — the transport, and
	// arms the gate's per-stream circuit breakers.
	var inj *fault.Injector
	if *faults != "" {
		prof, err := fault.ParseProfile(*faults, *seed)
		if err != nil {
			fatal(err)
		}
		inj = fault.NewInjector(prof)
		fmt.Printf("pggate: fault profile %q armed (seed %d)\n", prof.Name, *seed)
	}

	// Source.
	var src pipeline.RoundSource
	var faultFleet []*fault.Stream
	var resilient *stream.Resilient
	var recStreams []capture.StreamMeta
	m := *streams
	if *connect != "" {
		// The reconnecting client heals resets and framing desyncs; with
		// -faults its transport also carries the injected wire faults.
		rcfg := stream.ResilientConfig{Addr: *connect, Seed: *seed}
		if inj != nil {
			rcfg.WrapConn = inj.WrapConn
		}
		resilient, err = stream.NewResilient(rcfg)
		if err != nil {
			fatal(err)
		}
		defer resilient.Close()
		m = len(resilient.Streams())
		src = pipeline.NewNetSource(resilient)
		for _, si := range resilient.Streams() {
			recStreams = append(recStreams, capture.StreamMeta{
				Codec: si.Codec.String(), FPS: si.FPS, GOPSize: si.GOPSize,
			})
		}
		fmt.Printf("pggate: connected to %s (%d streams)\n", *connect, m)
	} else {
		fleet := make([]*codec.Stream, m)
		for i := range fleet {
			fleet[i] = codec.NewStream(
				codec.SceneConfig{BaseActivity: 0.4, PersonRate: 0.3, AnomalyRate: 30,
					FireRate: 30, QualityDropRate: 30},
				codec.EncoderConfig{StreamID: i, GOPSize: 25},
				*seed+int64(i)*7919)
		}
		for _, st := range fleet {
			ec := st.Encoder.Config()
			recStreams = append(recStreams, capture.StreamMeta{
				Codec: ec.Codec.String(), FPS: ec.FPS, GOPSize: ec.GOPSize,
			})
		}
		if inj != nil {
			faultFleet = inj.WrapFleet(fleet)
			cams := make([]pipeline.Camera, m)
			for i, w := range faultFleet {
				cams[i] = w
			}
			src = pipeline.NewCameraSource(cams, *rounds)
		} else {
			src = pipeline.NewLocalSource(fleet, *rounds)
		}
	}

	// Recording. The capture gets every ingested packet via a source tap;
	// with the packetgame policy the gate's decision trace lands in the same
	// file. The decision trace is audit-grade (replayable bit-identically by
	// `pgcap audit`) only when the run is sequential with immediate feedback
	// and no learned predictor or fault injection — otherwise the gate
	// metadata is omitted so audits fail loudly instead of lying.
	var capw *capture.Writer
	var capFile *os.File
	openCapture := func(gm *capture.GateMeta) {
		f, err := os.Create(*record)
		if err != nil {
			fatal(err)
		}
		capFile = f
		capw, err = capture.NewWriter(f, capture.SessionMeta{
			Label:          fmt.Sprintf("pggate %s %s", *taskName, *policy),
			StartUnixNanos: time.Now().UnixNano(),
			Streams:        recStreams,
			Gate:           gm,
		})
		if err != nil {
			fatal(err)
		}
	}
	auditGrade := *weights == "" && !*pipelined && *inflight <= 1 && inj == nil

	// Policy.
	var gate core.Decider
	var coreGate *core.Gate
	switch *policy {
	case "roundrobin":
		gate = core.NewBaselineGate(m, decode.DefaultCosts, &knapsack.RoundRobin{}, nil, *budget)
	case "random":
		gate = core.NewBaselineGate(m, decode.DefaultCosts, knapsack.NewRandom(*seed), nil, *budget)
	case "packetgame":
		cfg := core.Config{Streams: m, Window: *window, Budget: *budget, UseTemporal: true}
		if inj != nil {
			cfg.Breaker = &core.BreakerConfig{}
		}
		if len(prioTiers) != 0 {
			pr := make([]uint8, m)
			for i := range pr {
				pr[i] = prioTiers[i%len(prioTiers)]
			}
			cfg.Priorities = pr
		}
		cfg.Governor = gov
		cfg.Overload = ostats
		if *weights != "" {
			pcfg := predictor.DefaultConfig()
			pcfg.Window = *window
			p, err := predictor.New(pcfg)
			if err != nil {
				fatal(err)
			}
			f, err := os.Open(*weights)
			if err != nil {
				fatal(err)
			}
			if err := p.Load(f); err != nil {
				f.Close()
				fatal(err)
			}
			f.Close()
			cfg.Predictor = p
			fmt.Printf("pggate: loaded predictor from %s\n", *weights)
		}
		if *record != "" {
			var gm *capture.GateMeta
			if auditGrade {
				probe, err := core.NewGate(cfg)
				if err != nil {
					fatal(err)
				}
				pc := probe.Config()
				gm = &capture.GateMeta{
					Window: pc.Window, Budget: pc.Budget, UseTemporal: pc.UseTemporal,
					Explore: *pc.Explore, DependencyAware: *pc.DependencyAware,
					Priorities: pc.Priorities, Governed: gov != nil,
				}
			} else {
				fmt.Println("pggate: recording packets only (decision trace not audit-grade with a predictor, pipelining, feedback lag, or faults)")
			}
			openCapture(gm)
			cfg.Trace = capw
		}
		g, err := core.NewGate(cfg)
		if err != nil {
			fatal(err)
		}
		gate = g
		coreGate = g
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}

	var tap *capture.Tap
	if *record != "" {
		if capw == nil {
			openCapture(nil) // baseline policies: packets only
		}
		tap = capture.NewTap(src, capw, *recStep, nil)
		src = tap
	}

	stages := &metrics.StageSet{}
	pcfg := pipeline.Config{
		Source: src, Gate: gate, Task: task, Tasks: prioTasks, Workers: *workers,
		Pipelined: *pipelined, MaxInFlight: *inflight, FreshFeedback: *fresh,
		BurnNanosPerUnit: *burn, LatencyNanosPerUnit: *latency,
		Stages: stages, Deadline: *deadline, Governor: gov, Overload: ostats,
	}
	if inj != nil {
		pcfg.Retry = decode.RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond}
		pcfg.WrapDecoder = func(d decode.PacketDecoder) decode.PacketDecoder {
			return inj.WrapDecoder(d)
		}
	}
	eng, err := pipeline.New(pcfg)
	if err != nil {
		fatal(err)
	}
	rep, err := eng.Run(*rounds)
	if err != nil {
		fatal(err)
	}
	if capw != nil {
		if err := capw.Close(); err != nil {
			fatal(err)
		}
		if err := capFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("pggate: recorded %d rounds to %s\n", tap.Rounds(), *record)
	}

	fmt.Printf("\npggate report (%s, policy %s, budget %.1f)\n", task.Name(), *policy, *budget)
	fmt.Printf("  rounds            %d\n", rep.Rounds)
	fmt.Printf("  packets           %d\n", rep.Packets)
	fmt.Printf("  decoded           %d (gate filter rate %.1f%%)\n", rep.Decoded, rep.GateFilterRate*100)
	fmt.Printf("  inferred          %d (necessary: %d)\n", rep.Inferred, rep.NecessaryDecoded)
	if rep.Accuracy >= 0 {
		fmt.Printf("  accuracy          %.3f\n", rep.Accuracy)
	} else {
		fmt.Printf("  accuracy          n/a (no ground truth over the network)\n")
	}
	fmt.Printf("  wall time         %v (%.0f decoded FPS)\n", rep.Elapsed.Round(1e6), rep.DecodedFPS)
	mode := "sequential"
	if *pipelined {
		mode = "pipelined"
	}
	k := *inflight
	if k < 1 {
		k = 1 // the engine normalizes MaxInFlight 0 to 1
	}
	fmt.Printf("  engine            %s (in-flight %d)\n", mode, k)
	for _, st := range []struct {
		name string
		s    metrics.StageSnapshot
	}{
		{"gate", stages.Gate.Snapshot()},
		{"decode", stages.Decode.Snapshot()},
		{"infer", stages.Infer.Snapshot()},
	} {
		fmt.Printf("  stage %-8s    %d rounds, mean %.2fms, max depth %d\n",
			st.name, st.s.Done, st.s.MeanNanos()/1e6, st.s.MaxDepth)
	}
	if gov != nil {
		gs := gov.Snapshot()
		ov := rep.Overload
		fmt.Printf("  governor          SLO %v: %d/%d rounds missed, B_eff %.1f/%.1f, mode %s (ewma %v)\n",
			gov.Config().SLO, gs.SLOMisses, gs.Rounds, gs.BEff, *budget, gs.Mode, gs.EWMA.Round(time.Microsecond))
		fmt.Printf("  AIMD/ladder       %d cuts, %d raises; %d steps down, %d up (rounds full/temporal/keyframe/shed %d/%d/%d/%d)\n",
			gs.Cuts, gs.Raises, gs.StepDowns, gs.StepUps,
			gs.ModeRounds[0], gs.ModeRounds[1], gs.ModeRounds[2], gs.ModeRounds[3])
		fmt.Printf("  admission         %d packets shed, %d slots deferred, %d deadline-aborted\n",
			ov.Shed, ov.Deferred, ov.Aborted)
	}
	if inj != nil {
		fmt.Printf("  decode failures   %d (after retries)\n", rep.DecodeFailed)
		if faultFleet != nil {
			var injected int64
			for _, w := range faultFleet {
				st := w.Stats()
				injected += st.Corrupted + st.Truncated + st.Lost + st.Stalled
			}
			fmt.Printf("  injected faults   %d packet-level\n", injected)
		}
		if coreGate != nil {
			open, quarRounds := 0, int64(0)
			for _, snap := range coreGate.Breakers() {
				if snap.Opens > 0 {
					open++
				}
				quarRounds += snap.QuarantinedRounds
			}
			fmt.Printf("  breakers tripped  %d streams (%d quarantined rounds)\n", open, quarRounds)
		}
	}
	if resilient != nil && (resilient.Reconnects() > 0 || resilient.CorruptDropped() > 0) {
		fmt.Printf("  transport         %d reconnects, %d CRC-dropped frames\n",
			resilient.Reconnects(), resilient.CorruptDropped())
	}
}

// parsePriorities parses a "task:tier,task:tier" admission spec into the
// striped class lists: stream i runs tasks[i mod n] at tier tiers[i mod n].
func parsePriorities(spec string) ([]infer.Task, []uint8, error) {
	var tasks []infer.Task
	var tiers []uint8
	for _, part := range strings.Split(spec, ",") {
		name, tier, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, nil, fmt.Errorf("priorities: %q is not task:tier", part)
		}
		task, err := infer.ByName(strings.ToUpper(strings.TrimSpace(name)))
		if err != nil {
			return nil, nil, fmt.Errorf("priorities: %w", err)
		}
		t, err := strconv.ParseUint(strings.TrimSpace(tier), 10, 8)
		if err != nil {
			return nil, nil, fmt.Errorf("priorities: tier %q: %w", tier, err)
		}
		tasks = append(tasks, task)
		tiers = append(tiers, uint8(t))
	}
	return tasks, tiers, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pggate:", err)
	os.Exit(1)
}
