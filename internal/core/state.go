package core

import (
	"fmt"

	"packetgame/internal/bandit"
	"packetgame/internal/decode"
	"packetgame/internal/predictor"
)

// BreakerStreamState is one stream's portable circuit-breaker phase: the
// state machine fields plus the lifetime counters. The breaker is brought
// current (fast-forwarded) to the gate clock before export, so asOf is
// implicitly the exporting gate's round and is not part of the state.
type BreakerStreamState struct {
	State    BreakerState
	Fails    int
	Cooldown int
	OpenLeft int
	LastPkt  int64
	Snapshot BreakerSnapshot
}

// StreamState is one stream's complete portable gate state: everything a
// peer gate needs to continue the stream's decision history bit-identically.
// It is the unit of state transfer when a stream migrates between workers in
// a gating cluster.
type StreamState struct {
	// Round is the exporting gate's completed-round clock. An import
	// requires the importing gate's clock to match.
	Round int64
	// Temporal is the UCB estimator's window slice for the stream.
	Temporal bandit.StreamState
	// Row is the predictor feature-store row (windows, epoch, cursors).
	Row predictor.RowState
	// Tracker is the dependency-cost tracker state.
	Tracker decode.TrackerState
	// Breaker is the circuit-breaker phase; HasBreaker records whether the
	// exporting gate had breakers armed.
	HasBreaker bool
	Breaker    BreakerStreamState
	// WarmTarget, when non-zero, marks a stream still in the degraded
	// "temporal-only until warm" mode after a fresh (state-lost) import:
	// the stream scores without the contextual predictor until its feature
	// store has absorbed WarmTarget pushes.
	WarmTarget int64
}

func (s *breakerSet) exportStream(i int) BreakerStreamState {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := &s.bs[i]
	s.fastForward(b, s.round)
	return BreakerStreamState{
		State:    b.state,
		Fails:    b.fails,
		Cooldown: b.cooldown,
		OpenLeft: b.openLeft,
		LastPkt:  b.lastPkt,
		Snapshot: b.snapshot,
	}
}

func (s *breakerSet) importStream(i int, st BreakerStreamState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bs[i] = breaker{
		state:    st.State,
		fails:    st.Fails,
		cooldown: st.Cooldown,
		openLeft: st.OpenLeft,
		lastPkt:  st.LastPkt,
		asOf:     s.round,
		snapshot: st.Snapshot,
	}
}

// resetStream clears stream i's breaker. With fresh set, the packet clock is
// pinned to the current round so a state-lost stream does not instantly
// gap-open against a zero lastPkt it never had a chance to refresh.
func (s *breakerSet) resetStream(i int, fresh bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bs[i] = breaker{}
	if fresh {
		s.bs[i].lastPkt = s.round
		s.bs[i].asOf = s.round
	}
}

// ClockRound returns the gate's completed-round clock (rounds decided so
// far). Stream state export/import is only meaningful between rounds, with
// no round pending feedback.
func (g *Gate) ClockRound() int64 {
	g.pendMu.Lock()
	defer g.pendMu.Unlock()
	return g.stats.Rounds
}

// lockQuiescent takes the decide and ack locks and verifies no round is
// awaiting feedback — the only window in which per-stream state is coherent
// enough to move. Holding both locks excludes Decide and Feedback, so the
// per-stream state needs no further lock. The returned func releases them.
func (g *Gate) lockQuiescent(op string) (func(), error) {
	g.decideMu.Lock()
	g.ackMu.Lock()
	g.pendMu.Lock()
	pending := len(g.pending) - g.pendHead
	g.pendMu.Unlock()
	if pending != 0 {
		g.ackMu.Unlock()
		g.decideMu.Unlock()
		return nil, fmt.Errorf("core: %s with %d rounds pending feedback", op, pending)
	}
	return func() {
		g.ackMu.Unlock()
		g.decideMu.Unlock()
	}, nil
}

// ExportStream extracts stream i's complete gate state (estimator window,
// feature row, dependency tracker, breaker phase, warm-up mode). The gate is
// unchanged. It must be called between rounds (no pending feedback).
func (g *Gate) ExportStream(i int) (StreamState, error) {
	if i < 0 || i >= g.cfg.Streams {
		return StreamState{}, fmt.Errorf("core: export stream %d out of range [0,%d)", i, g.cfg.Streams)
	}
	unlock, err := g.lockQuiescent("ExportStream")
	if err != nil {
		return StreamState{}, err
	}
	defer unlock()
	st := StreamState{Round: g.stats.Rounds}
	if g.est != nil {
		if st.Temporal, err = g.est.ExportStream(i); err != nil {
			return StreamState{}, err
		}
	}
	if st.Row, err = g.store.ExportRow(i); err != nil {
		return StreamState{}, err
	}
	st.Tracker = g.trackers[i].Export()
	if g.breakers != nil {
		st.HasBreaker = true
		st.Breaker = g.breakers.exportStream(i)
	}
	if g.warmTarget != nil {
		st.WarmTarget = g.warmTarget[i]
	}
	return st, nil
}

// RetireStream erases stream i's per-stream state, returning its slot to the
// fresh (never-seen) condition: the stream has migrated away and this gate
// will no longer receive its packets. Must be called between rounds.
func (g *Gate) RetireStream(i int) error {
	if i < 0 || i >= g.cfg.Streams {
		return fmt.Errorf("core: retire stream %d out of range [0,%d)", i, g.cfg.Streams)
	}
	unlock, err := g.lockQuiescent("RetireStream")
	if err != nil {
		return err
	}
	defer unlock()
	return g.resetStreamLocked(i, false)
}

// resetStreamLocked clears stream i's state under the quiescent locks.
func (g *Gate) resetStreamLocked(i int, fresh bool) error {
	if g.est != nil {
		if err := g.est.RemoveStream(i); err != nil {
			return err
		}
	}
	if err := g.store.ResetRow(i); err != nil {
		return err
	}
	g.trackers[i].Reset()
	if g.breakers != nil {
		g.breakers.resetStream(i, fresh)
	}
	if g.cacheValid != nil {
		g.cacheValid[i] = false
	}
	if g.warmTarget != nil {
		g.warmTarget[i] = 0
	}
	return nil
}

// ImportStream installs an exported state into stream i's slot, which is
// reset first. The exporting gate's clock must match this gate's clock: the
// estimator window rounds, breaker phase, and feature epochs are all
// round-anchored. After a successful import the stream's decisions continue
// bit-identically to a gate that had owned it all along.
func (g *Gate) ImportStream(i int, st StreamState) error {
	if i < 0 || i >= g.cfg.Streams {
		return fmt.Errorf("core: import stream %d out of range [0,%d)", i, g.cfg.Streams)
	}
	unlock, err := g.lockQuiescent("ImportStream")
	if err != nil {
		return err
	}
	defer unlock()
	if st.Round != g.stats.Rounds {
		return fmt.Errorf("core: import stream %d at round %d into gate at round %d", i, st.Round, g.stats.Rounds)
	}
	if err := g.resetStreamLocked(i, false); err != nil {
		return err
	}
	if g.est != nil {
		if err := g.est.ImportStream(i, st.Temporal); err != nil {
			return err
		}
	}
	if err := g.store.ImportRow(i, st.Row); err != nil {
		return err
	}
	g.trackers[i].Import(st.Tracker)
	if g.breakers != nil && st.HasBreaker {
		g.breakers.importStream(i, st.Breaker)
	}
	if st.WarmTarget != 0 {
		g.ensureWarmTargets()
		g.warmTarget[i] = st.WarmTarget
	}
	return nil
}

// ImportFreshStream adopts stream i with no transferred state — its donor
// crashed or the state-transfer was dropped. The slot is reset, the breaker
// packet clock is pinned to the current round (no instant gap-open), and the
// stream enters the degraded temporal-only mode until its feature windows
// refill (Window pushes): the contextual predictor never scores cold
// windows, and the fresh estimator honestly reports "no evidence" (zero
// exploitation, full exploration bonus) rather than fabricating feedback.
func (g *Gate) ImportFreshStream(i int) error {
	if i < 0 || i >= g.cfg.Streams {
		return fmt.Errorf("core: fresh-import stream %d out of range [0,%d)", i, g.cfg.Streams)
	}
	unlock, err := g.lockQuiescent("ImportFreshStream")
	if err != nil {
		return err
	}
	defer unlock()
	if err := g.resetStreamLocked(i, true); err != nil {
		return err
	}
	if g.cfg.Predictor != nil {
		g.ensureWarmTargets()
		g.warmTarget[i] = int64(g.cfg.Window)
	}
	return nil
}

func (g *Gate) ensureWarmTargets() {
	if g.warmTarget == nil {
		g.warmTarget = make([]int64, g.cfg.Streams)
	}
}

// Warming reports whether stream i is in the post-fresh-import degraded
// mode (scored temporal-only until its feature windows refill).
func (g *Gate) Warming(i int) bool {
	g.decideMu.Lock()
	defer g.decideMu.Unlock()
	return g.warmTarget != nil && g.warmTarget[i] > 0
}

// AdvanceTo fast-forwards a freshly built gate's clock to absolute round T,
// as if T empty rounds had been decided and acked: the estimator clocks, the
// breaker round, and the round counter all land on T. A worker joining a
// cluster mid-run uses this to align with the cluster clock before importing
// stream states. Only valid on a gate that has decided no rounds.
func (g *Gate) AdvanceTo(T int64) error {
	unlock, err := g.lockQuiescent("AdvanceTo")
	if err != nil {
		return err
	}
	defer unlock()
	if g.stats.Rounds != 0 {
		return fmt.Errorf("core: AdvanceTo on a gate that already decided %d rounds", g.stats.Rounds)
	}
	if T < 0 {
		return fmt.Errorf("core: AdvanceTo(%d): negative round", T)
	}
	if g.est != nil {
		if err := g.est.AdvanceTo(T); err != nil {
			return err
		}
	}
	if g.breakers != nil {
		g.breakers.mu.Lock()
		g.breakers.round = T
		g.breakers.mu.Unlock()
	}
	g.pendMu.Lock()
	g.stats.Rounds = T
	g.pendMu.Unlock()
	return nil
}
