// Package core implements the paper's primary contribution: the
// multi-stream packet gating algorithm (Alg. 1). Each round the Gate takes
// one parsed packet per stream, scores it with the temporal estimator (§5.1)
// and the contextual predictor (§5.2), selects a budget-feasible subset with
// the combinatorial optimizer (§5.3), and later consumes the redundancy
// feedback of the decoded packets to update its state.
//
// Round cost scales with churn, not fleet size: every per-round loop walks
// the streams that delivered a packet (and, for the network forward, only
// the subset whose feature windows actually changed — the rest replay from
// the score cache), so a 100k-stream fleet where 1% of windows move per
// round pays roughly 1% of the dense recompute. The tests pin this to the
// dense recompute bit for bit: a twin gate whose score cache is dropped
// every round, checked against the dense knapsack solvers.
package core

import (
	"fmt"
	"math"
	"sync"

	"packetgame/internal/bandit"
	"packetgame/internal/codec"
	"packetgame/internal/decode"
	"packetgame/internal/knapsack"
	"packetgame/internal/metrics"
	"packetgame/internal/overload"
	"packetgame/internal/predictor"
	"packetgame/internal/trace"
)

// Config parameterizes a Gate.
type Config struct {
	// Streams is the number of concurrent streams m.
	Streams int
	// Window is the temporal window length w (default 5).
	Window int
	// Budget is the per-round decoding budget B in decode units. A budget
	// below Costs.I starves every stream: no keyframe is ever affordable,
	// and predicted frames owe their reference chains on top.
	Budget float64
	// Costs is the decode cost model (default decode.DefaultCosts).
	Costs decode.CostModel
	// Predictor is the trained contextual predictor. Nil yields the
	// "Temporal" ablation: confidence comes from the estimator alone.
	Predictor *predictor.Predictor
	// TaskIndex selects the predictor output head (multi-task models).
	// Set to AllTasks to gate on the maximum confidence across heads: a
	// packet is worth decoding if any of the co-deployed models needs it
	// (the smart-city multi-model deployment of §5.2).
	TaskIndex int
	// UseTemporal enables the temporal estimator. Disabling it (with a
	// predictor present) yields the "Contextual" ablation of Table 3.
	UseTemporal bool
	// Explore adds the UCB exploration bonus to the final confidence,
	// preserving the regret guarantee (§5.4). Defaults to the value of
	// UseTemporal.
	Explore *bool
	// Selector, when non-nil, replaces the built-in greedy optimizer (the
	// incremental knapsack.Ranked, which replicates knapsack.Greedy and
	// knapsack.Tiered). A knapsack.SparseSelector receives the round's
	// candidates; any other Selector sees an m-length item array in which
	// streams not in play this round are zero items.
	Selector knapsack.Selector
	// DependencyAware folds undecoded reference chains into packet costs
	// (Fig 6). Disabling it is a design ablation: costs become the bare
	// per-picture-type costs. Default true.
	DependencyAware *bool
	// OnlineLR enables online fine-tuning of the predictor from live
	// redundancy feedback (the paper's stated future work, §5.2): every
	// OnlineBatch feedback samples trigger one RMSprop step at this
	// learning rate. 0 disables (the paper's frozen-weights deployment).
	OnlineLR float64
	// OnlineBatch is the minibatch size for online updates (default 64).
	OnlineBatch int
	// MaxPending is the number of decided-but-unacked rounds the gate
	// tolerates before Decide fails. The default 1 enforces the paper's
	// strict Decide/Feedback alternation; the pipelined engine raises it
	// to its in-flight round bound. Feedback always acks the oldest
	// pending round, so UCB windows never observe out-of-order rewards.
	MaxPending int
	// Breaker, when non-nil, arms per-stream circuit breakers: streams
	// whose decodes keep failing (or that disappear for longer than the
	// gap threshold) are quarantined out of Decide until a half-open probe
	// succeeds, and streams with poisoned metadata windows (NaN or
	// zero-size runs) degrade from the contextual predictor to the
	// temporal-only estimate. The budget a quarantined stream would have
	// consumed flows to the healthy streams through the optimizer, which
	// preserves the Lemma-1 1−c/B bound over the healthy subset. Nil
	// keeps the fault-oblivious behavior (bit-identical decisions to
	// earlier versions).
	Breaker *BreakerConfig
	// Priorities assigns each stream an admission-control tier (0 =
	// highest, e.g. fire detection). When set it must have length Streams
	// and switches selection to the strict-priority tiered solver: low
	// tiers are shed first when the effective budget shrinks, and a
	// quarantined stream's freed budget flows to its own tier before
	// cascading down. Incompatible with a custom Selector. Nil keeps the
	// single-pool greedy solve.
	Priorities []uint8
	// Governor, when non-nil, closes the overload control loop: each
	// Decide plans against the governor's current effective budget B_eff
	// (instead of the fixed Budget) and degradation mode — full →
	// temporal-only (contextual predictor skipped) → keyframe-only (only
	// I-packets admitted) → shed (only tier-0 I-packets admitted). The
	// caller feeds observed round latencies into the governor; streams
	// refused admission by a brownout mode are simply not selected, which
	// the temporal estimator already treats as "no evidence" — load
	// shedding never fabricates necessity labels.
	Governor *overload.Governor
	// Overload, when non-nil, receives admission-control counters (packets
	// shed by brownout modes, feedback slots settled as deferred).
	Overload *metrics.OverloadStats
	// Planner, when non-nil, overrides Governor as the source of the
	// per-round effective budget and degradation mode. Replay audits use
	// an overload.Scripted planner here to pin each round to the recorded
	// run's overload state instead of re-running the control loop.
	Planner overload.Planner
	// Trace, when non-nil, records every round's confidences, costs, and
	// decisions as an audit trail (written at Feedback time, once
	// redundancy outcomes are known). *trace.Writer streams JSON Lines; a
	// capture recorder embeds the same records next to the packets.
	Trace trace.Sink
}

func (c Config) withDefaults() (Config, error) {
	if c.Streams <= 0 {
		return c, fmt.Errorf("core: Streams must be positive, got %d", c.Streams)
	}
	if c.Budget <= 0 {
		return c, fmt.Errorf("core: Budget must be positive, got %v", c.Budget)
	}
	if c.Window == 0 {
		c.Window = 5
	}
	if c.Costs == (decode.CostModel{}) {
		c.Costs = decode.DefaultCosts
	}
	if len(c.Priorities) != 0 {
		if len(c.Priorities) != c.Streams {
			return c, fmt.Errorf("core: %d priorities for %d streams", len(c.Priorities), c.Streams)
		}
		if c.Selector != nil {
			return c, fmt.Errorf("core: Priorities require the tiered solver and cannot combine with a custom Selector")
		}
	}
	if c.Predictor == nil && !c.UseTemporal {
		return c, fmt.Errorf("core: need a predictor, the temporal estimator, or both")
	}
	if c.Explore == nil {
		e := c.UseTemporal
		c.Explore = &e
	}
	if c.DependencyAware == nil {
		d := true
		c.DependencyAware = &d
	}
	if c.OnlineLR > 0 && c.Predictor == nil {
		return c, fmt.Errorf("core: online learning requires a predictor")
	}
	if c.OnlineBatch == 0 {
		c.OnlineBatch = 64
	}
	if c.MaxPending < 0 {
		return c, fmt.Errorf("core: MaxPending must be non-negative, got %d", c.MaxPending)
	}
	if c.MaxPending == 0 {
		c.MaxPending = 1
	}
	if c.Predictor != nil {
		pc := c.Predictor.Config()
		if pc.Window != c.Window {
			return c, fmt.Errorf("core: predictor window %d != gate window %d", pc.Window, c.Window)
		}
		if c.TaskIndex != AllTasks && (c.TaskIndex < 0 || c.TaskIndex >= pc.Tasks) {
			return c, fmt.Errorf("core: task index %d out of range for %d-task predictor", c.TaskIndex, pc.Tasks)
		}
		if c.TaskIndex == AllTasks && c.OnlineLR > 0 {
			return c, fmt.Errorf("core: online learning needs a concrete TaskIndex, not AllTasks")
		}
	}
	return c, nil
}

// AllTasks is a TaskIndex sentinel: aggregate confidence as the maximum
// over all predictor heads.
const AllTasks = -1

// Stats aggregates a Gate's lifetime counters.
type Stats struct {
	Rounds    int64
	Packets   int64 // non-idle packets observed
	Decoded   int64 // packets selected for decoding
	CostSpent float64
}

// IncrementalStats counts the scoring work the churn-scaled Decide path
// actually performed. Scored is the stream-rounds that needed a confidence
// (admitted, non-quarantined); every one was served either by a network
// forward (Forwards) or by the score cache (CacheHits), so
// Scored = Forwards + CacheHits + temporal-only degradations.
type IncrementalStats struct {
	Scored    int64
	Forwards  int64
	CacheHits int64
}

// pendingRound is one decided round awaiting its redundancy feedback. Its
// buffers come from the gate's free lists and return there when the round
// retires, so steady-state rounds recycle rather than allocate.
type pendingRound struct {
	sel      []int  // decode set, as returned by Decide
	selBools []bool // per-stream selection flags (all-false outside sel)
	trace    *trace.Round
	// feats maps stream index to the features used for the decision,
	// retained (cloned into slab) only when online learning is on.
	feats map[int]predictor.Features
	slab  *predictor.Slab
}

// Gate is the PacketGame plug-in between parser and decoder.
//
// Concurrency: the Gate is safe for concurrent use. Decide calls serialize
// against each other, Feedback calls serialize against each other, and a
// Decide may run concurrently with a Feedback — the only per-stream state
// they share, the temporal estimator, has its own lock. Feedback acks
// pending rounds strictly in decision order (FIFO), which keeps the UCB
// reward windows ordered even when rounds complete out of order
// downstream. Up to Config.MaxPending rounds may be awaiting feedback.
type Gate struct {
	cfg Config

	// decideMu serializes Decide and guards the decision scratch buffers,
	// the feature store, the dependency trackers, the predictor forward
	// pass, and the online trainer's weight updates.
	decideMu sync.Mutex
	// ackMu serializes Feedback and guards the reward scratch.
	ackMu sync.Mutex
	// pendMu guards the pending-round FIFO, lifetime stats, the trace
	// writer, and the online-sample buffer. Innermost lock.
	pendMu sync.Mutex

	// Per-stream state, indexed by stream ID. The temporal estimator is the
	// one piece Decide reads while Feedback writes it, so it alone carries
	// a lock (estMu); est is nil when neither the temporal term nor the
	// exploration bonus is enabled. store is the predictor's feature state
	// (size rings, poison counters, and the feature epochs the score cache
	// keys on); trackers are the GOP dependency trackers (Fig 6).
	estMu    sync.Mutex
	est      *bandit.TemporalEstimator
	store    *predictor.Store
	trackers []*decode.Tracker

	// breakers is the per-stream circuit-breaker set (nil when disabled).
	// It carries its own lock: Decide advances it under decideMu while
	// FeedbackExt folds outcomes in under ackMu.
	breakers *breakerSet

	// pending is a ring FIFO: pendHead indexes the oldest unacked round,
	// the tail is appended to. Retired rounds recycle their buffers through
	// the free lists below (all under pendMu). freeBool buffers keep the
	// all-false invariant while on the free list.
	pending    []pendingRound
	pendHead   int
	maxPending int
	freeSel    [][]int
	freeBool   [][]bool
	freeFeats  []map[int]predictor.Features

	// Decision scratch (decideMu). The per-stream arrays (conf, costs,
	// temporal, bonus, degraded, shed, selected) are m-length but only the
	// entries of streams the round touches are written; `touched` remembers
	// them so the next round resets exactly those — every other entry is
	// still at its zero value, making the reset equivalent to the dense
	// full-array zeroing without the O(m) walk.
	feats      []predictor.Features
	active     []int   // admitted streams, ascending (scored this round)
	fresh      []int   // active subset re-scored through the network
	nonIdleBuf []int32 // scanned non-idle list when the caller supplies none
	sweep      []int32 // non-quarantined non-idle (windows advance)
	touched    []int32
	conf       []float64
	costs      []float64
	temporal   []float64
	bonus      []float64
	predOut    []float64       // [len(fresh) × tasks] confidences, row-major
	selOut     []int           // selection scratch
	selected   []bool          // all-false between rounds
	degraded   []bool          // poisoned-window streams scored temporal-only this round
	shed       []bool          // streams refused admission by the brownout mode this round
	tasks      int             // predictor head count (0 without a predictor)
	pktAt      []*codec.Packet // sparse-round scatter scratch (m-length, nil between rounds)

	// forward scores a batch of feature rows into a row-major
	// [len(feats) × tasks] output: the predictor's compiled PredictInto.
	forward func(feats []predictor.Features, out []float64) error

	// Selection: ranked is the persistent score-ordered candidate structure
	// of the built-in optimizer; with a custom Config.Selector it is nil and
	// custom receives the round's candidates (from cands) instead.
	ranked *knapsack.Ranked
	custom knapsack.SparseSelector
	cands  []knapsack.Candidate

	// Score cache (with a predictor): the network confidence per stream,
	// keyed by (feature epoch, temporal input, weights version).
	cacheConf    []float64
	cacheEpoch   []uint64
	cacheTemp    []float64
	cachePredVer []uint64
	cacheValid   []bool
	incStats     IncrementalStats

	// Tiered admission control (Config.Priorities). tiers is the per-stream
	// tier table, fixed at construction.
	tiers    []uint8
	numTiers int

	// warmTarget, when allocated (first fresh import), marks streams
	// adopted without transferred state: entry i > 0 degrades stream i to
	// the temporal-only estimate until its feature store reaches that many
	// pushes (decideMu).
	warmTarget []int64

	// Feedback scratch (ackMu). reward is m-length, all-zero between
	// rounds: entries are set for a feedback's selections and cleared
	// again once the estimator push list (pushIDs, pushRew) is built.
	reward  []float64
	pushIDs []int32
	pushRew []float64

	// Online learning (OnlineLR > 0). Weight updates take decideMu; the
	// slab backs buffered samples and resets after every trainer step.
	trainer   *predictor.Trainer
	buffer    []predictor.Sample
	trainSlab *predictor.Slab

	stats Stats
}

// NewGate builds a gate from the config.
func NewGate(cfg Config) (*Gate, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g := &Gate{
		cfg:        cfg,
		store:      predictor.NewStore(cfg.Streams, cfg.Window),
		trackers:   make([]*decode.Tracker, cfg.Streams),
		maxPending: cfg.MaxPending,
		conf:       make([]float64, cfg.Streams),
		costs:      make([]float64, cfg.Streams),
		temporal:   make([]float64, cfg.Streams),
		bonus:      make([]float64, cfg.Streams),
		selected:   make([]bool, cfg.Streams),
		degraded:   make([]bool, cfg.Streams),
		shed:       make([]bool, cfg.Streams),
		reward:     make([]float64, cfg.Streams),
	}
	for i := range g.trackers {
		g.trackers[i] = decode.NewTracker(cfg.Costs)
	}
	if cfg.UseTemporal || *cfg.Explore {
		if g.est, err = bandit.NewTemporalEstimator(cfg.Streams, cfg.Window); err != nil {
			return nil, err
		}
	}
	if len(cfg.Priorities) != 0 {
		g.numTiers = 1
		for _, t := range cfg.Priorities {
			if int(t)+1 > g.numTiers {
				g.numTiers = int(t) + 1
			}
		}
		g.tiers = append([]uint8(nil), cfg.Priorities...)
	}
	if cfg.Predictor != nil {
		g.tasks = cfg.Predictor.Config().Tasks
		if err := cfg.Predictor.Compile(); err != nil {
			return nil, fmt.Errorf("core: compiling inference fast path: %w", err)
		}
		g.forward = cfg.Predictor.PredictInto
		g.cacheConf = make([]float64, cfg.Streams)
		g.cacheEpoch = make([]uint64, cfg.Streams)
		g.cacheTemp = make([]float64, cfg.Streams)
		g.cachePredVer = make([]uint64, cfg.Streams)
		g.cacheValid = make([]bool, cfg.Streams)
	}
	switch sel := cfg.Selector.(type) {
	case nil:
		g.ranked = knapsack.NewRanked(cfg.Streams)
	case knapsack.SparseSelector:
		g.custom = sel
	default:
		g.custom = &denseSelector{sel: sel, items: make([]knapsack.Item, cfg.Streams)}
	}
	if cfg.OnlineLR > 0 {
		g.trainer = predictor.NewTrainer(cfg.Predictor, cfg.OnlineLR)
		g.trainSlab = &predictor.Slab{}
	}
	if cfg.Breaker != nil {
		g.breakers = newBreakerSet(cfg.Streams, *cfg.Breaker)
	}
	return g, nil
}

// Breakers returns every stream's circuit-breaker snapshot, or nil when
// Config.Breaker is unset.
func (g *Gate) Breakers() []BreakerSnapshot {
	if g.breakers == nil {
		return nil
	}
	return g.breakers.snapshots()
}

// Quarantined returns the number of streams whose breaker is currently open.
func (g *Gate) Quarantined() int {
	n := 0
	for _, b := range g.Breakers() {
		if b.State == BreakerOpen {
			n++
		}
	}
	return n
}

// Config returns the gate's effective configuration.
func (g *Gate) Config() Config { return g.cfg }

// Stats returns the lifetime counters.
func (g *Gate) Stats() Stats {
	g.pendMu.Lock()
	defer g.pendMu.Unlock()
	return g.stats
}

// Incremental returns the churn-scaled path's lifetime work counters.
func (g *Gate) Incremental() IncrementalStats {
	g.decideMu.Lock()
	defer g.decideMu.Unlock()
	return g.incStats
}

// Pending returns the number of decided rounds still awaiting feedback.
func (g *Gate) Pending() int {
	g.pendMu.Lock()
	defer g.pendMu.Unlock()
	return len(g.pending) - g.pendHead
}

// SetMaxPending raises (or lowers, min 1) the decided-but-unacked round
// bound. The pipelined engine calls this with its MaxInFlight depth.
func (g *Gate) SetMaxPending(k int) {
	if k < 1 {
		k = 1
	}
	g.pendMu.Lock()
	g.maxPending = k
	g.pendMu.Unlock()
}

// Decide runs one gating round. pkts holds one parsed packet per stream
// (nil for streams with no packet this round) and must have length
// Config.Streams. It returns the indices of the streams whose packets should
// be decoded. At most MaxPending rounds may be outstanding: with the default
// of 1, Feedback must be called before the next Decide.
func (g *Gate) Decide(pkts []*codec.Packet) ([]int, error) {
	return g.DecideRoundAppend(pkts, nil, nil)
}

// DecideRoundAppend is Decide appending the selection into dst (which may be
// nil): callers that recycle dst across rounds pay zero allocations for the
// result. On error the returned slice is nil. Callers that already know
// which streams delivered a packet this round pass them as nonIdle, which
// must list exactly the indices i with pkts[i] != nil, strictly ascending;
// nil makes the gate scan pkts itself. Producers that assemble the round
// (the pipelined engine, replay) build this list for free while placing
// packets, and handing it over lets the gate skip its own O(m) scan — with
// a small fleet slice active inside a large configured fleet, the whole
// round then costs O(non-idle), not O(m). The list is only read for the
// duration of the call.
func (g *Gate) DecideRoundAppend(pkts []*codec.Packet, nonIdle []int32, dst []int) ([]int, error) {
	g.decideMu.Lock()
	defer g.decideMu.Unlock()
	last := int32(-1)
	for _, i := range nonIdle {
		if i <= last {
			return nil, fmt.Errorf("core: nonIdle must be strictly ascending (%d after %d)", i, last)
		}
		if int(i) >= len(pkts) || pkts[i] == nil {
			return nil, fmt.Errorf("core: nonIdle lists stream %d, which has no packet", i)
		}
		last = i
	}
	if err := g.decideLocked(pkts, nonIdle); err != nil {
		return nil, err
	}
	return append(dst, g.selOut...), nil
}

// DecideSparseAppend is DecideRoundAppend over a sparse round: only the
// streams in r exist this round. The round's packets are scattered into a
// persistent m-length array (so the scoring core keeps its by-stream
// indexing) and un-scattered afterwards — both O(active) — which makes the
// whole call O(active) for a mostly-idle fleet while remaining bit-identical
// to handing the dense equivalent to Decide.
func (g *Gate) DecideSparseAppend(r *codec.Round, dst []int) ([]int, error) {
	g.decideMu.Lock()
	defer g.decideMu.Unlock()
	if r.M != g.cfg.Streams {
		return nil, fmt.Errorf("core: sparse round width %d for %d streams", r.M, g.cfg.Streams)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if g.pktAt == nil {
		g.pktAt = make([]*codec.Packet, g.cfg.Streams)
	}
	r.Scatter(g.pktAt)
	err := g.decideLocked(g.pktAt, r.IDs)
	r.ClearScatter(g.pktAt)
	if err != nil {
		return nil, err
	}
	return append(dst, g.selOut...), nil
}

func (g *Gate) decideLocked(pkts []*codec.Packet, nonIdle []int32) error {
	if len(pkts) != g.cfg.Streams {
		return fmt.Errorf("core: %d packets for %d streams", len(pkts), g.cfg.Streams)
	}
	g.pendMu.Lock()
	if n := len(g.pending) - g.pendHead; n >= g.maxPending {
		g.pendMu.Unlock()
		return fmt.Errorf("core: Decide called with %d unacked rounds (MaxPending %d): Feedback must close the oldest round first", n, g.maxPending)
	}
	g.pendMu.Unlock()

	// 0. Plan against the overload governor (when armed): the round runs
	// with the governor's effective budget and degradation mode instead of
	// the fixed nominal budget.
	bEff := g.cfg.Budget
	mode := overload.ModeFull
	if g.cfg.Planner != nil {
		bEff, mode = g.cfg.Planner.Plan()
	} else if g.cfg.Governor != nil {
		bEff, mode = g.cfg.Governor.Plan()
	}

	if nonIdle == nil {
		g.nonIdleBuf = g.nonIdleBuf[:0]
		for i, p := range pkts {
			if p != nil {
				g.nonIdleBuf = append(g.nonIdleBuf, int32(i))
			}
		}
		nonIdle = g.nonIdleBuf
	}

	// Reset the per-stream scratch entries the previous round wrote; all
	// other entries still hold their zero values.
	for _, i := range g.touched {
		g.conf[i] = 0
		g.costs[i] = 0
		g.temporal[i] = 0
		g.bonus[i] = 0
		g.degraded[i] = false
		g.shed[i] = false
	}
	g.touched = g.touched[:0]

	// 1. Advance the circuit breakers (when armed) and fold packet
	// metadata into the per-stream feature store, reading the per-stream
	// temporal estimate, exploration bonus, and dependency-inclusive cost
	// under the estimator lock. Quarantined streams are observed but
	// excluded: their windows stay frozen (untrusted metadata), their
	// packets never enter the selection, and the budget they would have
	// consumed flows to the healthy streams.
	// Brownout modes shed packets at admission here too — shed streams
	// still push their (trusted) windows so context stays warm for
	// recovery, but they are excluded from scoring and selection.
	var quar []bool
	if g.breakers != nil {
		quar = g.breakers.beginRoundSparse(nonIdle)
	}
	g.sweep = g.sweep[:0]
	g.active = g.active[:0]
	shedCount := 0
	for _, i32 := range nonIdle {
		i := int(i32)
		if quar != nil && quar[i] {
			continue
		}
		g.sweep = append(g.sweep, i32)
		g.touched = append(g.touched, i32)
		if !g.admit(mode, i, pkts[i]) {
			g.shed[i] = true
			shedCount++
			continue
		}
		g.active = append(g.active, i)
	}
	if shedCount > 0 {
		g.cfg.Overload.AddShed(int64(shedCount))
	}
	depAware := *g.cfg.DependencyAware
	g.estMu.Lock()
	for _, i32 := range g.sweep {
		i := int(i32)
		p := pkts[i]
		g.store.Push(i, p)
		if g.est != nil {
			g.temporal[i] = g.est.Exploit(i)
			g.bonus[i] = g.est.Bonus(i)
		}
		if depAware {
			g.costs[i] = g.trackers[i].Cost(p)
		} else {
			g.costs[i] = g.cfg.Costs.Of(p.Type)
		}
	}
	g.estMu.Unlock()

	// 2. Confidence per stream: contextual predictor fused with the
	// temporal estimate, plus the exploration bonus (Alg. 1 line 5-6).
	// Streams whose score-cache key still matches — feature epoch,
	// temporal input, and predictor weights version all unchanged — reuse
	// their cached network confidence; only the rest (`fresh`) run through
	// the compiled batched forward, whose kernels are row-independent, so
	// the partial batch is bit-identical to scoring everyone. Brownout
	// modes below full skip the predictor entirely — the temporal-only
	// rung is exactly the poisoned-window degradation applied fleet-wide,
	// and the deeper rungs inherit it — which also suspends
	// online-training retention (no predictor features were used, so
	// there is nothing truthful to train on).
	var roundFeats map[int]predictor.Features
	var roundSlab *predictor.Slab
	if g.cfg.Predictor != nil && mode == overload.ModeFull {
		pVer := g.cfg.Predictor.Version()
		g.feats = g.feats[:0]
		g.fresh = g.fresh[:0]
		for _, i := range g.active {
			// Fault-aware gates degrade streams whose metadata windows
			// are poisoned to the temporal-only estimate instead of
			// trusting the network on garbage input.
			if g.breakers != nil && g.store.Poisoned(i) {
				g.degraded[i] = true
				g.conf[i] = g.temporal[i]
				continue
			}
			// Streams adopted without transferred state (fresh import
			// after a lost migration) stay temporal-only until their
			// feature windows refill: the predictor never scores cold
			// windows.
			if g.warmTarget != nil && g.warmTarget[i] > 0 {
				if g.store.Pushes(i) >= g.warmTarget[i] {
					g.warmTarget[i] = 0
				} else {
					g.degraded[i] = true
					g.conf[i] = g.temporal[i]
					continue
				}
			}
			t := 0.0
			if g.cfg.UseTemporal {
				t = g.temporal[i]
			}
			epoch := g.store.Epoch(i)
			if g.cacheValid[i] && g.cacheEpoch[i] == epoch &&
				g.cacheTemp[i] == t && g.cachePredVer[i] == pVer {
				g.conf[i] = g.cacheConf[i]
				g.incStats.CacheHits++
				continue
			}
			g.cacheValid[i] = false
			g.cacheEpoch[i] = epoch
			g.cacheTemp[i] = t
			g.cachePredVer[i] = pVer
			g.fresh = append(g.fresh, i)
			g.feats = append(g.feats, g.store.Features(i, t))
		}
		if len(g.feats) > 0 {
			if cap(g.predOut) < len(g.feats)*g.tasks {
				g.predOut = make([]float64, len(g.feats)*g.tasks)
			}
			preds := g.predOut[:len(g.feats)*g.tasks]
			if err := g.forward(g.feats, preds); err != nil {
				return fmt.Errorf("core: fast-path inference: %w", err)
			}
			for k, i := range g.fresh {
				row := preds[k*g.tasks : (k+1)*g.tasks]
				var net float64
				if g.cfg.TaskIndex == AllTasks {
					for _, v := range row {
						if v > net {
							net = v
						}
					}
				} else {
					net = row[g.cfg.TaskIndex]
				}
				g.conf[i] = net
				g.cacheConf[i] = net
				g.cacheValid[i] = true
			}
		}
		g.incStats.Scored += int64(len(g.active))
		g.incStats.Forwards += int64(len(g.fresh))
		if g.trainer != nil {
			roundFeats = g.grabFeatsMap(len(g.active))
			roundSlab = predictor.GetSlab()
			for _, i := range g.active {
				if g.degraded[i] {
					continue // poisoned features must not train the net
				}
				t := 0.0
				if g.cfg.UseTemporal {
					t = g.temporal[i]
				}
				roundFeats[i] = roundSlab.CloneInto(g.store.Features(i, t))
			}
		}
	} else {
		for _, i := range g.active {
			g.conf[i] = g.temporal[i]
		}
	}
	if *g.cfg.Explore {
		for _, i := range g.active {
			g.conf[i] += g.bonus[i]
		}
	}

	// 3. Combinatorial selection under the effective budget. The ranked
	// incremental structure re-ranks only the streams whose (value, cost)
	// moved since their last offer and merges them into its persistent
	// order — O(churn·log churn + selections) per round, provably the
	// same selection as the dense greedy/tiered sort (knapsack tests). A
	// custom Selector gets the round's candidates instead: the active list
	// is ascending by stream id, so positional tie-breaks in the selector
	// match dense index tie-breaks exactly. Quarantined and brownout-shed
	// streams are simply never offered, so their budget flows to the
	// healthy streams.
	if g.ranked != nil {
		nt := g.numTiers
		if nt == 0 {
			nt = 1
		}
		g.ranked.BeginRound()
		for _, i := range g.active {
			var tier uint8
			if g.tiers != nil {
				tier = g.tiers[i]
			}
			g.ranked.Offer(i, g.conf[i], g.costs[i], tier)
		}
		g.selOut = g.ranked.SelectAppend(g.selOut[:0], nt, bEff)
	} else {
		g.cands = g.cands[:0]
		for _, i := range g.active {
			g.cands = append(g.cands, knapsack.Candidate{Stream: int32(i), Value: g.conf[i], Cost: g.costs[i]})
		}
		g.selOut = g.custom.SelectSparseAppend(g.selOut[:0], g.cands, bEff)
	}
	sel := g.selOut

	// 4. Commit decisions to the dependency trackers. Every non-idle
	// packet commits — including quarantined and shed ones (as
	// unselected), which keeps reference-chain debts truthful. With
	// dependency-aware costing off the trackers have no consumer (Cost
	// above took the bare per-type cost), so the whole pass is skipped —
	// an O(m) saving per round that cannot affect any decision.
	for _, i := range sel {
		g.selected[i] = true
	}
	if depAware {
		for _, i := range nonIdle {
			g.trackers[i].Commit(pkts[i], g.selected[i])
		}
	}

	// 5. Enqueue the round on the feedback FIFO and update counters. The
	// round's retention buffers come from the free lists under pendMu.
	var spent float64
	for _, i := range sel {
		spent += g.costs[i]
	}
	g.pendMu.Lock()
	bools := g.grabBools()
	for _, i := range sel {
		bools[i] = true
	}
	pr := pendingRound{
		sel:      append(g.grabSel(), sel...),
		selBools: bools,
		feats:    roundFeats,
		slab:     roundSlab,
	}
	if g.cfg.Trace != nil {
		rec := &trace.Round{T: g.stats.Rounds, Budget: bEff, Spent: spent, Mode: mode.String()}
		for _, i := range g.active {
			rec.Decisions = append(rec.Decisions, trace.Decision{
				Stream:     i,
				Type:       pkts[i].Type.String(),
				Size:       pkts[i].Size,
				Confidence: g.conf[i],
				Cost:       g.costs[i],
				Selected:   g.selected[i],
			})
		}
		pr.trace = rec
	}
	g.stats.Rounds++
	g.stats.Packets += int64(len(nonIdle))
	g.stats.Decoded += int64(len(sel))
	g.stats.CostSpent += spent
	if g.pendHead > 0 && len(g.pending) == cap(g.pending) {
		n := copy(g.pending, g.pending[g.pendHead:])
		for j := n; j < len(g.pending); j++ {
			g.pending[j] = pendingRound{}
		}
		g.pending = g.pending[:n]
		g.pendHead = 0
	}
	g.pending = append(g.pending, pr)
	g.pendMu.Unlock()
	// Restore the all-false invariant on the selection mask.
	for _, i := range sel {
		g.selected[i] = false
	}
	return nil
}

// admit applies the degradation ladder's admission rule to one packet:
// keyframe-only admits independent pictures, shed admits only top-tier
// (priority 0) independent pictures. Without Priorities every stream is
// tier 0, so shed degenerates to keyframe-only.
func (g *Gate) admit(mode overload.Mode, i int, p *codec.Packet) bool {
	switch mode {
	case overload.ModeKeyframeOnly:
		return p.Type.Independent()
	case overload.ModeShed:
		return p.Type.Independent() && (g.tiers == nil || g.tiers[i] == 0)
	default:
		return true
	}
}

// denseSelector adapts a Selector that indexes an m-length item array by
// stream (the ablation baselines) to the gate's candidate list: the round's
// candidates are placed in the array, every other stream is a zero item.
type denseSelector struct {
	sel   knapsack.Selector
	items []knapsack.Item // all zero between rounds
}

func (d *denseSelector) SelectSparseAppend(dst []int, cands []knapsack.Candidate, budget float64) []int {
	for _, c := range cands {
		d.items[c.Stream] = knapsack.Item{Value: c.Value, Cost: c.Cost}
	}
	dst = append(dst, d.sel.Select(d.items, budget)...)
	for _, c := range cands {
		d.items[c.Stream] = knapsack.Item{}
	}
	return dst
}

// grabSel / grabBools / grabFeatsMap recycle retired pending-round buffers.
// grabSel and grabBools require pendMu; grabFeatsMap takes it itself.
func (g *Gate) grabSel() []int {
	if n := len(g.freeSel); n > 0 {
		s := g.freeSel[n-1]
		g.freeSel = g.freeSel[:n-1]
		return s[:0]
	}
	return nil
}

// grabBools returns an all-false m-length mask: recycled buffers were
// cleared entry-by-entry when their round retired, so no O(m) zeroing
// happens here.
func (g *Gate) grabBools() []bool {
	if n := len(g.freeBool); n > 0 {
		s := g.freeBool[n-1]
		g.freeBool = g.freeBool[:n-1]
		return s
	}
	return make([]bool, g.cfg.Streams)
}

func (g *Gate) grabFeatsMap(sizeHint int) map[int]predictor.Features {
	g.pendMu.Lock()
	defer g.pendMu.Unlock()
	if n := len(g.freeFeats); n > 0 {
		m := g.freeFeats[n-1]
		g.freeFeats = g.freeFeats[:n-1]
		return m
	}
	return make(map[int]predictor.Features, sizeHint)
}

// Confidence returns the confidence computed for stream i in the most
// recent round that scored it (diagnostic).
func (g *Gate) Confidence(i int) float64 {
	g.decideMu.Lock()
	defer g.decideMu.Unlock()
	return g.conf[i]
}

// Feedback acks the oldest pending round: necessary[k] is the redundancy
// feedback for stream selected[k] (aligned with that round's Decide return
// value). Rounds must be acked in decision order; the gate verifies the ack
// against the queued round so out-of-order or mismatched feedback fails fast
// instead of corrupting the UCB reward windows.
func (g *Gate) Feedback(selected []int, necessary []bool) error {
	return g.FeedbackExt(selected, necessary, nil)
}

// FeedbackExt is Feedback with per-selection decode outcomes: failed[k]
// marks a selection whose decode never produced a frame (poison pill,
// exhausted retries). Failed selections drive the circuit breakers, are
// excluded from online training (their labels are unverified), and carry
// whatever conservative necessary[k] the pipeline settled on so the UCB
// reward windows stay well-defined over partial rounds. failed may be nil
// (no failures), which is exactly Feedback.
func (g *Gate) FeedbackExt(selected []int, necessary []bool, failed []bool) error {
	return g.FeedbackFull(selected, necessary, failed, nil)
}

// FeedbackFull is FeedbackExt with load-shedding outcomes: deferred[k]
// marks a selection the pipeline abandoned to meet a round deadline. A
// deferred slot's outcome is *unknown* — not a failure, not a redundancy
// verdict — so it must not leave a trace in any learned state: the slot is
// recorded as unselected in the temporal estimator's reward window (no
// reward, no selection count — only its age grows, exactly as if the
// optimizer had passed it over), it never reaches the online trainer, and
// it does not drive the stream's circuit breaker (the stream did nothing
// wrong). necessary[k] is ignored for deferred slots. deferred may be nil
// (nothing abandoned), which is exactly FeedbackExt.
//
// One deliberate approximation: the dependency tracker committed the
// selection at Decide time, so an abandoned decode leaves the tracker
// optimistic about the reference chain until the stream's next keyframe
// resets it — the GOP bounds the error window.
func (g *Gate) FeedbackFull(selected []int, necessary, failed, deferred []bool) error {
	g.ackMu.Lock()
	defer g.ackMu.Unlock()
	g.pendMu.Lock()
	if len(g.pending) == g.pendHead {
		g.pendMu.Unlock()
		return fmt.Errorf("core: Feedback without a pending round")
	}
	pr := g.pending[g.pendHead]
	g.pendMu.Unlock()
	if len(selected) != len(necessary) {
		return fmt.Errorf("core: %d selections with %d feedback values", len(selected), len(necessary))
	}
	if failed != nil && len(failed) != len(selected) {
		return fmt.Errorf("core: %d selections with %d failure flags", len(selected), len(failed))
	}
	if deferred != nil && len(deferred) != len(selected) {
		return fmt.Errorf("core: %d selections with %d deferral flags", len(selected), len(deferred))
	}
	if len(selected) != len(pr.sel) {
		return fmt.Errorf("core: feedback for %d selections, pending round selected %d", len(selected), len(pr.sel))
	}
	// Match every entry against the round's selection mask, clearing each
	// flag as it matches so that a stream listed twice fails as well. A
	// mismatch restores the mask: the round stays pending.
	for _, i := range selected {
		var err error
		switch {
		case i < 0 || i >= g.cfg.Streams:
			err = fmt.Errorf("core: feedback for invalid stream %d", i)
		case !pr.selBools[i]:
			err = fmt.Errorf("core: feedback for stream %d, which the pending round did not select or which it lists twice", i)
		}
		if err != nil {
			for _, j := range pr.sel {
				pr.selBools[j] = true
			}
			return err
		}
		pr.selBools[i] = false
	}
	// Re-arm the mask for every slot but the deferred ones: a deferred slot
	// is recorded as unselected in the estimator push below, which keeps
	// abandoned decodes out of the UCB windows. The reward scratch is
	// all-zero between feedbacks; set exactly the rewarded entries and
	// clear them again once the estimator push list is built.
	var nDeferred int64
	for k, i := range selected {
		if deferred != nil && deferred[k] {
			nDeferred++
			continue
		}
		pr.selBools[i] = true
		if necessary[k] {
			g.reward[i] = 1
		}
	}
	if deferred != nil {
		g.cfg.Overload.AddDeferred(nDeferred)
	}

	// Fold decode outcomes into the circuit breakers: a failure run opens
	// the breaker, a success closes a half-open probe. Deferred slots skip
	// this — abandoning a decode says nothing about the stream's health.
	if g.breakers != nil {
		for k, i := range selected {
			if deferred != nil && deferred[k] {
				continue
			}
			g.breakers.outcome(i, failed != nil && failed[k])
		}
	}

	// Push the round into the estimator, visiting only the round's
	// selections instead of all m streams.
	g.pushIDs = g.pushIDs[:0]
	g.pushRew = g.pushRew[:0]
	for _, i := range pr.sel {
		if !pr.selBools[i] {
			continue // settled as deferred
		}
		g.pushIDs = append(g.pushIDs, int32(i))
		g.pushRew = append(g.pushRew, g.reward[i])
	}
	for _, i := range selected {
		g.reward[i] = 0
	}
	if g.est != nil {
		g.estMu.Lock()
		err := g.est.PushSparse(g.pushIDs, g.pushRew)
		g.estMu.Unlock()
		if err != nil {
			return err
		}
	}

	// Online fine-tuning: weight updates share decideMu with the forward
	// pass so training never races a concurrent prediction.
	if g.trainer != nil {
		g.decideMu.Lock()
		for k, i := range selected {
			if failed != nil && failed[k] {
				continue // unverified label: never train on it
			}
			if deferred != nil && deferred[k] {
				continue // abandoned decode: no label exists at all
			}
			f, ok := pr.feats[i]
			if !ok {
				continue
			}
			// Deep-copy into the training slab: the round's own slab is
			// recycled when the round retires below, but buffered samples
			// must survive until the next trainer step.
			labels := g.trainSlab.Alloc(g.tasks)
			for t := range labels {
				labels[t] = math.NaN() // only this gate's head gets a label
			}
			r := 0.0
			if necessary[k] {
				r = 1
			}
			labels[g.cfg.TaskIndex] = r
			g.buffer = append(g.buffer, predictor.Sample{F: g.trainSlab.CloneInto(f), Labels: labels})
		}
		var stepErr error
		if len(g.buffer) >= g.cfg.OnlineBatch {
			_, stepErr = g.trainer.Step(g.buffer)
			g.buffer = g.buffer[:0]
			g.trainSlab.Reset()
		}
		g.decideMu.Unlock()
		if stepErr != nil {
			return stepErr
		}
	}

	// Retire the round: write its trace record, recycle its buffers, and
	// advance the FIFO head.
	g.pendMu.Lock()
	defer g.pendMu.Unlock()
	if pr.trace != nil {
		nec := map[int]bool{}
		def := map[int]bool{}
		fld := map[int]bool{}
		for k, i := range selected {
			nec[i] = necessary[k] && (deferred == nil || !deferred[k])
			def[i] = deferred != nil && deferred[k]
			fld[i] = failed != nil && failed[k]
		}
		for d := range pr.trace.Decisions {
			if pr.trace.Decisions[d].Selected {
				pr.trace.Decisions[d].Necessary = nec[pr.trace.Decisions[d].Stream]
				pr.trace.Decisions[d].Deferred = def[pr.trace.Decisions[d].Stream]
				pr.trace.Decisions[d].Failed = fld[pr.trace.Decisions[d].Stream]
			}
		}
		if err := g.cfg.Trace.Write(*pr.trace); err != nil {
			return err
		}
	}
	// Clear the mask entry-by-entry so the recycled buffer keeps the
	// all-false free-list invariant without an O(m) wipe.
	for _, i := range pr.sel {
		pr.selBools[i] = false
	}
	g.freeSel = append(g.freeSel, pr.sel)
	g.freeBool = append(g.freeBool, pr.selBools)
	if pr.feats != nil {
		clear(pr.feats)
		g.freeFeats = append(g.freeFeats, pr.feats)
	}
	if pr.slab != nil {
		predictor.PutSlab(pr.slab)
	}
	g.pending[g.pendHead] = pendingRound{}
	g.pendHead++
	if g.pendHead == len(g.pending) {
		g.pending = g.pending[:0]
		g.pendHead = 0
	}
	return nil
}
