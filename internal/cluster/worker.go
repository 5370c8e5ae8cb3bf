package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/metrics"
	"packetgame/internal/overload"
	"packetgame/internal/pipeline"
	"packetgame/internal/predictor"
)

// OrphanOptions arms orphan mode: a worker that loses its coordinator
// degrades to local temporal-only gating instead of stalling or re-homing,
// then reconciles its observations with whichever coordinator is alive.
type OrphanOptions struct {
	// Source is an identically-seeded local instance of the cluster's
	// round source. On coordinator loss it is advanced to the worker's
	// round clock and then drives local rounds, filtered to the streams
	// this worker owns.
	Source pipeline.RoundSource
	// Rounds is how many local rounds to play before reconciling and
	// retiring (default 8).
	Rounds int64
}

// WorkerOptions tunes one data-plane worker.
type WorkerOptions struct {
	// Name is a diagnostic label sent in the join frame.
	Name string
	// WrapDecoder injects decode faults (same hook as pipeline.Config).
	WrapDecoder func(decode.PacketDecoder) decode.PacketDecoder
	// DecodeWorkers is the local decode parallelism (default 2).
	DecodeWorkers int
	// CrashAfter, when > 0, makes the worker abruptly close its connection
	// after fully settling that round (its report for the round is never
	// sent) — the chaos hook. Crashes land exactly on a round boundary, so
	// same-seed chaos runs are deterministic.
	CrashAfter int64
	// Orphan, when non-nil, selects orphan mode over re-homing when the
	// coordinator dies: gate locally under the last granted budget at the
	// overload ladder's temporal-only rung, then reconcile and retire.
	Orphan *OrphanOptions
	// RejoinAttempts bounds re-home/reconcile dial sweeps over the standby
	// list (default 8), with deterministic per-worker jittered backoff
	// between sweeps.
	RejoinAttempts int
	// RejoinBase is the base re-join backoff (default 50ms).
	RejoinBase time.Duration
	// RejoinWait bounds the wait for the standby's takeover reply
	// (default 30s — the standby may be holding its rejoin window open for
	// slower members).
	RejoinWait time.Duration
}

// errCrashed marks an injected crash (distinguished from real failures in
// Wait's error).
var errCrashed = errors.New("cluster: injected worker crash")

// session is one coordinator connection. A worker may go through several —
// primary, then an elected standby — and every per-connection read state
// (delta-coding membership, queued frames) is scoped to the session.
type session struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	down chan struct{} // closed by the read loop on a recoverable loss
	err  error         // set before down is closed
}

// Worker is one data-plane process: it runs the full gate over the
// global stream-ID space — scoring only the streams the coordinator routes
// to it — and defers the knapsack solve to the coordinator through a remote
// selector that trades candidate frames for grant frames inside Decide.
type Worker struct {
	opts WorkerOptions
	wmu  sync.Mutex // serializes frame writes and session swaps
	sess *session

	id    int
	epoch uint64
	ccfg  ClusterConfig

	gate   *core.Gate
	fleet  *infer.Fleet
	eng    *pipeline.Engine
	src    *clusterSource
	over   *metrics.OverloadStats
	greedy knapsack.Greedy // local solver for orphan/disconnected rounds

	stop     chan struct{} // closed on fatal error or crash: unblocks everything
	stopOnce sync.Once
	bye      chan struct{} // closed on orderly goodbye from the coordinator
	byeOnce  sync.Once
	done     chan struct{}

	mu       sync.Mutex
	readErr  error
	standbys []string     // re-home targets, refreshed by fStandbys frames
	orphanR  OrphanReport // filled when orphan mode ran
	// accBase corrects totals() for monitor-state transfers: counters that
	// leave with a retired stream were observed here (keep them), counters
	// that arrive with an adopted stream were observed elsewhere (exclude
	// them). totals() then counts exactly the observations this worker made
	// itself, which keeps the report deltas monotonic across transfers.
	accBase AccDeltas

	grantCh chan grantMsg
	roundCh chan *roundMsg

	// prevIDs is the delta-coding membership state of the round-frame stream
	// (readLoop-owned): the ascending stream ids of the last decoded round.
	// It resets with every new session — delta coding starts from the empty
	// set on both sides of a fresh connection.
	prevIDs []int32
	// owned tracks the streams this worker has ever been routed or adopted
	// (readLoop-owned while connected; read by the engine only after the
	// read loop has exited). Orphan mode gates exactly these streams.
	owned []bool
	// lastReported is the observation watermark: totals up to and including
	// the last successfully delivered report or re-join handoff. The
	// difference totals−lastReported is what the next report carries, so a
	// death at any moment loses at most one round of observations.
	lastReported AccDeltas
}

// OrphanReport summarizes a worker's orphan-mode episode.
type OrphanReport struct {
	Entered    bool
	Rounds     int64 // local rounds played
	Decoded    int64 // local decode grants
	Deltas     AccDeltas
	Reconciled bool // observations handed to a live coordinator
}

// Dial connects to the coordinator, performs the PGCP handshake and join,
// builds the gate from the welcomed cluster config, and starts the worker's
// engine, reader, and heartbeat goroutines. It returns once the worker is
// admitted (the coordinator may still be transferring state to it).
func Dial(addr string, opts WorkerOptions) (*Worker, error) {
	if opts.RejoinAttempts <= 0 {
		opts.RejoinAttempts = 8
	}
	if opts.RejoinBase <= 0 {
		opts.RejoinBase = 50 * time.Millisecond
	}
	if opts.RejoinWait <= 0 {
		opts.RejoinWait = 30 * time.Second
	}
	if opts.Orphan != nil && opts.Orphan.Rounds <= 0 {
		opts.Orphan.Rounds = 8
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &session{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<20),
		bw:   bufio.NewWriterSize(conn, 1<<20),
		down: make(chan struct{}),
	}
	w := &Worker{
		opts:    opts,
		sess:    s,
		stop:    make(chan struct{}),
		bye:     make(chan struct{}),
		done:    make(chan struct{}),
		grantCh: make(chan grantMsg, 1),
		roundCh: make(chan *roundMsg, 1),
		over:    &metrics.OverloadStats{},
	}
	if err := writeHandshake(s.bw); err != nil {
		conn.Close()
		return nil, err
	}
	join, err := gobEncode(&JoinInfo{Name: opts.Name})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := w.send(fJoin, join); err != nil {
		conn.Close()
		return nil, err
	}
	typ, body, err := readFrame(s.br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: awaiting welcome: %w", err)
	}
	if typ != fWelcome {
		conn.Close()
		return nil, fmt.Errorf("cluster: expected welcome, got frame type %d", typ)
	}
	var wel Welcome
	if err := gobDecode(body, &wel); err != nil {
		conn.Close()
		return nil, err
	}
	if err := w.build(wel); err != nil {
		conn.Close()
		return nil, err
	}
	go w.readLoop(s)
	go w.heartbeatLoop(s)
	go w.run()
	return w, nil
}

// build materializes the gate, fleet, and engine from the welcomed config.
// Every worker builds the predictor locally from the shared config: seeded
// init makes the weights bit-identical across workers and the single-gate
// oracle, so no weight tensors ever cross the wire.
func (w *Worker) build(wel Welcome) error {
	w.id = wel.WorkerID
	w.epoch = wel.Epoch
	w.ccfg = wel.Cfg
	w.setStandbys(wel.Standbys)
	cfg := wel.Cfg
	w.owned = make([]bool, cfg.Streams)

	task, err := infer.ByName(cfg.Task)
	if err != nil {
		return fmt.Errorf("cluster: worker task: %w", err)
	}
	var pred *predictor.Predictor
	if cfg.UsePred {
		pred, err = predictor.New(cfg.Predictor)
		if err != nil {
			return fmt.Errorf("cluster: worker predictor: %w", err)
		}
	}
	w.src = &clusterSource{w: w, m: cfg.Streams, welRound: wel.CurrentRound}
	sel := &remoteSelector{w: w}
	gate, err := core.NewGate(core.Config{
		Streams:     cfg.Streams,
		Window:      cfg.Window,
		Budget:      cfg.Budget,
		Costs:       cfg.Costs,
		Predictor:   pred,
		TaskIndex:   cfg.TaskIndex,
		UseTemporal: cfg.UseTemporal,
		Breaker:     cfg.Breaker,
		Selector:    sel,
		Planner:     w.src,
		Overload:    w.over,
	})
	if err != nil {
		return fmt.Errorf("cluster: worker gate: %w", err)
	}
	if wel.CurrentRound > 0 {
		if err := gate.AdvanceTo(wel.CurrentRound); err != nil {
			return fmt.Errorf("cluster: worker clock: %w", err)
		}
	}
	w.gate = gate
	workers := w.opts.DecodeWorkers
	if workers <= 0 {
		workers = 2
	}
	eng, err := pipeline.New(pipeline.Config{
		Source:      w.src,
		Gate:        gate,
		Task:        task,
		Costs:       cfg.Costs,
		Workers:     workers,
		Retry:       cfg.Retry,
		WrapDecoder: w.opts.WrapDecoder,
		MaxInFlight: 1,
		Overload:    w.over,
	})
	if err != nil {
		return fmt.Errorf("cluster: worker engine: %w", err)
	}
	w.eng = eng
	// The fleet must exist before the first round: a worker joining
	// mid-run receives state-transfer frames (which import monitor state)
	// before its first round frame.
	w.fleet = eng.EnsureFleet(cfg.Streams)
	return nil
}

// session returns the current coordinator connection. Only the engine
// thread swaps sessions, so its own reads need no lock; the write lock in
// installSession orders the swap against concurrent send calls.
func (w *Worker) session() *session { return w.sess }

// send writes one frame to the current session under the write lock.
func (w *Worker) send(typ uint8, body []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if w.sess == nil {
		return errors.New("cluster: no coordinator session")
	}
	return writeFrame(w.sess.bw, typ, body)
}

// fail records the first fatal error and unblocks every waiter.
func (w *Worker) fail(err error) {
	w.mu.Lock()
	if w.readErr == nil {
		w.readErr = err
	}
	w.mu.Unlock()
	w.stopOnce.Do(func() { close(w.stop) })
}

// Wait blocks until the worker's run ends and returns its final error (nil
// on an orderly goodbye or a reconciled orphan retirement, errCrashed
// after an injected crash).
func (w *Worker) Wait() error {
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	if errors.Is(w.readErr, io.EOF) {
		return nil
	}
	return w.readErr
}

// Crashed reports whether the worker ended via the injected-crash hook.
func (w *Worker) Crashed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return errors.Is(w.readErr, errCrashed)
}

// ID returns the coordinator-assigned worker ID.
func (w *Worker) ID() int { return w.id }

// Gate exposes the worker's gate (tests inspect warming/breaker state).
func (w *Worker) Gate() *core.Gate { return w.gate }

// Fleet exposes the worker's inference monitors.
func (w *Worker) Fleet() *infer.Fleet { return w.fleet }

// Orphan returns the orphan-mode episode summary (zero if never orphaned).
func (w *Worker) Orphan() OrphanReport {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.orphanR
}

func (w *Worker) setStandbys(addrs []string) {
	w.mu.Lock()
	w.standbys = append(w.standbys[:0], addrs...)
	w.mu.Unlock()
}

func (w *Worker) standbyList() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.standbys...)
}

// recoverable reports whether losing the coordinator connection has a
// recovery path (re-home to a standby, or orphan mode) rather than being
// fatal.
func (w *Worker) recoverable() bool {
	select {
	case <-w.stop:
		return false
	case <-w.bye:
		return false
	default:
	}
	if w.opts.Orphan != nil {
		return true
	}
	return len(w.standbyList()) > 0
}

// totals snapshots the worker's cumulative observation counters. The live
// counters have no decode-failure tally, so DecodeFailed rides only in the
// final residual.
func (w *Worker) totals() AccDeltas {
	nr, nc, pr, pc := w.fleet.ClassTotals()
	snap := w.over.Snapshot()
	d := AccDeltas{
		NegRounds: nr, NegCorrect: nc,
		PosRounds: pr, PosCorrect: pc,
		Shed: snap.Shed, Deferred: snap.Deferred,
	}
	w.mu.Lock()
	d.add(w.accBase)
	w.mu.Unlock()
	return d
}

// monDeltas extracts one monitor's class counters as deltas.
func monDeltas(st infer.MonitorState) AccDeltas {
	return AccDeltas{
		NegRounds: st.NegRounds, NegCorrect: st.NegCorrect,
		PosRounds: st.PosRounds, PosCorrect: st.PosCorrect,
	}
}

// shiftBase folds a transfer adjustment into the totals correction.
func (w *Worker) shiftBase(d AccDeltas) {
	w.mu.Lock()
	w.accBase.add(d)
	w.mu.Unlock()
}

// run drives the engine until the source EOFs (goodbye or reconciled
// orphan retirement) or fails, then sends the final accounting frame. The
// final carries only the residual past the lastReported watermark: the
// per-round delta reports already delivered everything before it.
func (w *Worker) run() {
	defer close(w.done)
	defer func() {
		if s := w.session(); s != nil {
			s.conn.Close()
		}
	}()
	rep, err := w.eng.Run(0)
	if err != nil {
		w.fail(err)
		return
	}
	select {
	case <-w.stop:
		// Crash or connection loss: no final frame.
		return
	case <-w.bye:
		// Orderly goodbye: report the final accounting below.
	default:
		// Reconciled orphan retirement: deltas were handed over already.
		return
	}
	d := w.totals().sub(w.lastReported)
	fin := WorkerFinal{
		Rounds:       rep.Rounds,
		Decoded:      rep.Decoded,
		DecodeFailed: rep.DecodeFailed,
		NegRounds:    d.NegRounds,
		NegCorrect:   d.NegCorrect,
		PosRounds:    d.PosRounds,
		PosCorrect:   d.PosCorrect,
		Shed:         d.Shed,
		Deferred:     d.Deferred,
	}
	body, err := gobEncode(&fin)
	if err != nil {
		w.fail(err)
		return
	}
	if err := w.send(fFinal, body); err != nil {
		w.fail(err)
		return
	}
	_ = w.send(fGoodbye, nil)
}

// crash abruptly severs the connection (the chaos hook): no goodbye, no
// final frame — the coordinator learns of the death from the broken pipe.
func (w *Worker) crash() {
	w.fail(errCrashed)
	if s := w.session(); s != nil {
		s.conn.Close()
	}
}

// readLoop is the worker's only frame reader for one session. Control
// frames that mutate gate state (retire, import, fresh-adopt) are handled
// inline: the coordinator only sends them while this worker is blocked
// awaiting its next round frame, at which point the engine has released
// all due feedback and the gate is quiescent.
//
// A read error ends the session. When a recovery path exists (standbys or
// orphan mode) it closes the session's down channel instead of failing the
// worker — the engine thread then re-homes or goes orphan.
func (w *Worker) readLoop(s *session) {
	for {
		typ, body, err := readFrame(s.br)
		if err != nil {
			if w.recoverable() {
				s.err = err
				close(s.down)
			} else {
				w.fail(err)
			}
			return
		}
		switch typ {
		case fRound:
			// A fresh roundMsg per round: the engine holds the previous round
			// until it asks for the next one, and a queued frame may sit in
			// roundCh behind it, so buffers cannot be recycled in place. The
			// allocation is O(active) — the sparse round only materializes
			// the streams present in the frame.
			msg := new(roundMsg)
			if err := decodeRoundDelta(body, w.ccfg.Streams, w.prevIDs, msg); err != nil {
				w.fail(err)
				return
			}
			w.prevIDs = append(w.prevIDs[:0], msg.rnd.IDs...)
			for _, id := range msg.rnd.IDs {
				w.owned[id] = true
			}
			select {
			case w.roundCh <- msg:
			case <-w.stop:
				return
			}
		case fGrant:
			g, err := decodeGrant(body, w.ccfg.Streams)
			if err != nil {
				w.fail(err)
				return
			}
			select {
			case w.grantCh <- g:
			case <-w.stop:
				return
			}
		case fRetire:
			var ids []int
			seq, err := decodeCtrl(body, &ids)
			if err == nil {
				for _, i := range ids {
					w.owned[i] = false
				}
				err = w.retire(seq, ids)
			}
			if err != nil {
				w.fail(err)
				return
			}
		case fState:
			var blobs []StreamBlob
			seq, err := decodeCtrl(body, &blobs)
			if err == nil {
				for _, b := range blobs {
					w.owned[b.Stream] = true
				}
				err = w.adopt(seq, blobs)
			}
			if err != nil {
				w.fail(err)
				return
			}
		case fImportFresh:
			var ids []int
			seq, err := decodeCtrl(body, &ids)
			if err == nil {
				for _, i := range ids {
					w.owned[i] = true
				}
				err = w.adoptFresh(seq, ids)
			}
			if err != nil {
				w.fail(err)
				return
			}
		case fStandbys:
			var addrs []string
			if err := gobDecode(body, &addrs); err != nil {
				w.fail(err)
				return
			}
			w.setStandbys(addrs)
		case fGoodbye:
			w.byeOnce.Do(func() { close(w.bye) })
			return
		case fHeartbeat:
			// Coordinator heartbeat (standby path); tolerate and ignore.
		default:
			w.fail(fmt.Errorf("cluster: worker got unexpected frame type %d", typ))
			return
		}
	}
}

// retire exports the named streams (gate + monitor), resets their local
// slots, and replies with the serialized state batch.
func (w *Worker) retire(seq uint64, ids []int) error {
	blobs := make([]StreamBlob, 0, len(ids))
	for _, i := range ids {
		st, err := w.gate.ExportStream(i)
		if err != nil {
			return fmt.Errorf("cluster: retire export %d: %w", i, err)
		}
		mon := w.fleet.Stream(i).Export()
		if err := w.gate.RetireStream(i); err != nil {
			return fmt.Errorf("cluster: retire %d: %w", i, err)
		}
		// The counters leave with the stream but the observations were made
		// here: keep them in this worker's totals.
		w.shiftBase(monDeltas(mon))
		w.fleet.Stream(i).Reset()
		blobs = append(blobs, StreamBlob{Stream: i, Gate: st, Monitor: mon})
	}
	body, err := encodeCtrl(seq, &blobs)
	if err != nil {
		return err
	}
	return w.send(fState, body)
}

// adopt imports transferred stream states and acks the batch.
func (w *Worker) adopt(seq uint64, blobs []StreamBlob) error {
	for _, b := range blobs {
		if err := w.gate.ImportStream(b.Stream, b.Gate); err != nil {
			return fmt.Errorf("cluster: adopt %d: %w", b.Stream, err)
		}
		// The arriving counters were observed (and already reported) by the
		// previous owner: exclude them from this worker's totals.
		w.shiftBase(AccDeltas{}.sub(monDeltas(b.Monitor)))
		w.fleet.Stream(b.Stream).Import(b.Monitor)
	}
	return w.ack(seq)
}

// adoptFresh adopts streams whose state transfer was lost: honest zero
// state, breaker clock pinned to now, temporal-only until windows refill.
func (w *Worker) adoptFresh(seq uint64, ids []int) error {
	for _, i := range ids {
		if err := w.gate.ImportFreshStream(i); err != nil {
			return fmt.Errorf("cluster: fresh adopt %d: %w", i, err)
		}
		w.fleet.Stream(i).Reset()
	}
	return w.ack(seq)
}

func (w *Worker) ack(seq uint64) error {
	var body [8]byte
	binaryPutUint64(body[:], seq)
	return w.send(fStateAck, body[:])
}

// heartbeatLoop sends liveness beacons for one session so the
// coordinator's lease survives long decode stalls between reports. The
// period carries deterministic per-worker jitter: a fleet admitted (or
// re-homed) together must not beacon in phase.
func (w *Worker) heartbeatLoop(s *session) {
	every := w.ccfg.HeartbeatEvery
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	tick := time.NewTicker(heartbeatJitter(every, w.id))
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-w.bye:
			return
		case <-s.down:
			return
		case <-tick.C:
			w.src.mu.Lock()
			last := w.src.lastRound
			w.src.mu.Unlock()
			if err := w.send(fHeartbeat, encodeReport(last, 0, AccDeltas{})); err != nil {
				// A beacon racing the orderly goodbye (the conn closes
				// right after the final frame) is not a failure; real
				// connection loss also breaks the read loop, which either
				// reports it or triggers recovery.
				select {
				case <-w.bye:
				case <-w.stop:
				default:
					if !w.recoverable() {
						w.fail(err)
					}
				}
				return
			}
		}
	}
}

// drainStale discards frames queued by a dead session so the next session
// starts from a clean slate.
func (w *Worker) drainStale() {
	for {
		select {
		case <-w.roundCh:
		case <-w.grantCh:
		default:
			return
		}
	}
}

// installSession swaps in a new coordinator connection: reset the
// per-session read state, discard stale frames, and start the new reader
// and heartbeat.
func (w *Worker) installSession(s *session, tk TakeoverInfo) {
	w.drainStale()
	w.prevIDs = w.prevIDs[:0]
	w.epoch = tk.Epoch
	w.setStandbys(tk.Standbys)
	w.wmu.Lock()
	w.sess = s
	w.wmu.Unlock()
	go w.readLoop(s)
	go w.heartbeatLoop(s)
}

// dialRejoin performs one re-join handshake against addr and blocks for
// the takeover verdict.
func (w *Worker) dialRejoin(addr string, info RejoinInfo) (*session, TakeoverInfo, error) {
	var tk TakeoverInfo
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, tk, err
	}
	s := &session{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<20),
		bw:   bufio.NewWriterSize(conn, 1<<20),
		down: make(chan struct{}),
	}
	fail := func(err error) (*session, TakeoverInfo, error) {
		conn.Close()
		return nil, tk, err
	}
	if err := writeHandshake(s.bw); err != nil {
		return fail(err)
	}
	body, err := gobEncode(&info)
	if err != nil {
		return fail(err)
	}
	if err := writeFrame(s.bw, fRejoin, body); err != nil {
		return fail(err)
	}
	// The standby may hold the connection until its rejoin window resolves.
	conn.SetReadDeadline(time.Now().Add(w.opts.RejoinWait))
	typ, tbody, err := readFrame(s.br)
	if err != nil {
		return fail(err)
	}
	if typ != fTakeover {
		return fail(fmt.Errorf("cluster: expected takeover reply, got frame %d", typ))
	}
	if err := gobDecode(tbody, &tk); err != nil {
		return fail(err)
	}
	conn.SetReadDeadline(time.Time{})
	return s, tk, nil
}

// rejoin sweeps the standby list (jittered backoff between sweeps) until
// one accepts. reconcileOnly hands in observations and departs; otherwise
// the accepted session is installed and the engine resumes on it.
func (w *Worker) rejoin(clock int64, reconcileOnly bool) error {
	totals := w.totals()
	info := RejoinInfo{
		WorkerID:      w.id,
		Epoch:         w.epoch,
		Clock:         clock,
		Name:          w.opts.Name,
		ReconcileOnly: reconcileOnly,
		Deltas:        totals.sub(w.lastReported),
	}
	for attempt := 0; attempt < w.opts.RejoinAttempts; attempt++ {
		for _, addr := range w.standbyList() {
			select {
			case <-w.stop:
				return errors.New("cluster: re-join aborted")
			case <-w.bye:
				return errors.New("cluster: re-join aborted")
			default:
			}
			s, tk, err := w.dialRejoin(addr, info)
			if err != nil {
				continue
			}
			if !tk.Accepted {
				s.conn.Close()
				return fmt.Errorf("cluster: re-join rejected: %s", tk.Reason)
			}
			w.lastReported = totals
			if reconcileOnly {
				s.conn.Close()
				return nil
			}
			w.installSession(s, tk)
			return nil
		}
		time.Sleep(rejoinBackoff(w.opts.RejoinBase, w.id, attempt))
	}
	return fmt.Errorf("cluster: no standby accepted re-join after %d sweeps", w.opts.RejoinAttempts)
}

// clusterSource adapts the round frames into the pipeline's RoundSource /
// SparseRoundSource / RoundLister and the gate's overload.Planner: each
// next-round call reports the previous round's settlement, then blocks for
// the next round frame; Plan serves the coordinator-planned effective budget
// and mode for the round in flight. On coordinator loss it re-homes to a
// standby or degrades to orphan mode, transparently to the engine.
type clusterSource struct {
	w *Worker
	m int

	mu        sync.Mutex // guards lastRound against the heartbeat goroutine
	lastRound int64

	welRound  int64 // clock granted at admission (for never-started workers)
	started   bool
	t0        time.Time
	cur       *roundMsg
	dense     []*codec.Packet // NextRound scatter scratch
	grantEWMA float64         // smoothed granted decode cost (orphan budget)
	grantSeen bool
	orphan    *orphanState
}

// orphanState drives local rounds after the coordinator is lost.
type orphanState struct {
	src     pipeline.RoundSource
	left    int64
	round   int64 // next local round number
	bEff    float64
	started AccDeltas // totals watermark at orphan entry
	decoded int64
}

// clock returns the next round this worker expects.
func (s *clusterSource) clock() int64 {
	if s.started {
		return s.cur.round + 1
	}
	return s.welRound
}

// next reports the settled round (if any) and blocks for the next frame,
// recovering through re-home or orphan mode when the session dies.
func (s *clusterSource) next() (*roundMsg, error) {
	w := s.w
	if s.orphan != nil {
		return s.orphanNext()
	}
	if s.started {
		if w.opts.CrashAfter > 0 && s.cur.round >= w.opts.CrashAfter {
			w.crash()
			return nil, errCrashed
		}
		totals := w.totals()
		rep := encodeReport(s.cur.round, time.Since(s.t0), totals.sub(w.lastReported))
		if err := w.send(fReport, rep); err != nil {
			if !w.recoverable() {
				w.fail(err)
				return nil, err
			}
			// The send failed on a dying session: the read loop closes
			// down momentarily and the select below recovers. The
			// unreported deltas ride the re-join handoff instead.
		} else {
			w.lastReported = totals
		}
	}
	for {
		// Prefer a round the dead-or-alive session already delivered: its
		// decision context is valid regardless of what happened since.
		select {
		case msg := <-w.roundCh:
			s.install(msg)
			return msg, nil
		default:
		}
		sess := w.session()
		select {
		case msg := <-w.roundCh:
			s.install(msg)
			return msg, nil
		case <-w.bye:
			return nil, io.EOF
		case <-w.stop:
			w.mu.Lock()
			err := w.readErr
			w.mu.Unlock()
			if err == nil {
				err = io.EOF
			}
			return nil, err
		case <-sess.down:
			if w.opts.Orphan != nil {
				if err := s.enterOrphan(); err != nil {
					w.fail(err)
					return nil, err
				}
				return s.orphanNext()
			}
			if err := w.rejoin(s.clock(), false); err != nil {
				w.fail(err)
				return nil, err
			}
			// Re-homed: the handoff carried the pending deltas (the re-join
			// advanced the watermark), and rounds now arrive on the new
			// session. The next settled round reports only its own deltas.
			continue
		}
	}
}

func (s *clusterSource) install(msg *roundMsg) {
	s.cur = msg
	s.started = true
	s.t0 = time.Now()
	s.mu.Lock()
	s.lastRound = msg.round
	s.mu.Unlock()
}

// enterOrphan switches to local gating: advance the identically-seeded
// local source past the rounds already played, then serve Rounds local
// rounds filtered to the owned streams at the last granted budget.
func (s *clusterSource) enterOrphan() error {
	w := s.w
	w.drainStale()
	clock := s.clock()
	for i := int64(0); i < clock; i++ {
		if err := discardRound(w.opts.Orphan.Source); err != nil {
			return fmt.Errorf("cluster: orphan source behind cluster clock %d: %w", clock, err)
		}
	}
	bEff := s.grantEWMA
	if !s.grantSeen {
		// Never granted anything: fall back to the planned share.
		if s.started {
			bEff = s.cur.bEff
		} else {
			bEff = w.ccfg.Budget
		}
	}
	s.orphan = &orphanState{
		src:     w.opts.Orphan.Source,
		left:    w.opts.Orphan.Rounds,
		round:   clock,
		bEff:    bEff,
		started: w.totals(),
	}
	w.mu.Lock()
	w.orphanR.Entered = true
	w.mu.Unlock()
	return nil
}

// orphanNext serves one local round, or — once the orphan budget of rounds
// is spent — reconciles the accumulated observations with a live
// coordinator and retires the worker cleanly.
func (s *clusterSource) orphanNext() (*roundMsg, error) {
	w := s.w
	o := s.orphan
	if o.left <= 0 {
		deltas := w.totals().sub(o.started)
		reconciled := w.rejoin(o.round, true) == nil
		w.mu.Lock()
		w.orphanR.Deltas = deltas
		w.orphanR.Decoded = o.decoded
		w.orphanR.Reconciled = reconciled
		w.mu.Unlock()
		return nil, io.EOF
	}
	o.left--
	msg := new(roundMsg)
	msg.round = o.round
	msg.bEff = o.bEff
	msg.mode = overload.ModeTemporalOnly
	msg.rnd.Reset(s.m)
	if err := gatherOwned(o.src, w.owned, msg); err != nil {
		// Source exhausted mid-orphan: reconcile what we have.
		o.left = 0
		return s.orphanNext()
	}
	o.round++
	w.mu.Lock()
	w.orphanR.Rounds++
	w.mu.Unlock()
	s.install(msg)
	return msg, nil
}

// discardRound pulls and drops one round from a local source.
func discardRound(src pipeline.RoundSource) error {
	if ss, ok := src.(pipeline.SparseRoundSource); ok {
		_, err := ss.NextRoundSparse()
		return err
	}
	_, err := src.NextRound()
	return err
}

// gatherOwned pulls one round from the local source into msg, keeping only
// the streams this worker owns (best effort: streams never routed here are
// unknown and skipped).
func gatherOwned(src pipeline.RoundSource, owned []bool, msg *roundMsg) error {
	if ss, ok := src.(pipeline.SparseRoundSource); ok {
		rnd, err := ss.NextRoundSparse()
		if err != nil {
			return err
		}
		for k, id := range rnd.IDs {
			if int(id) < len(owned) && owned[id] {
				msg.rnd.Append(id, rnd.Pkts[k])
				t, ok := src.Truth(int(id))
				msg.truth = append(msg.truth, t)
				msg.hasT = append(msg.hasT, ok)
			}
		}
		return nil
	}
	pkts, err := src.NextRound()
	if err != nil {
		return err
	}
	for i, p := range pkts {
		if p != nil && i < len(owned) && owned[i] {
			msg.rnd.Append(int32(i), p)
			t, ok := src.Truth(i)
			msg.truth = append(msg.truth, t)
			msg.hasT = append(msg.hasT, ok)
		}
	}
	return nil
}

// NextRoundSparse implements pipeline.SparseRoundSource: the frame is
// already sparse, so the engine's fast path gets it wholesale.
func (s *clusterSource) NextRoundSparse() (*codec.Round, error) {
	msg, err := s.next()
	if err != nil {
		return nil, err
	}
	return &msg.rnd, nil
}

// NextRound implements pipeline.RoundSource: the dense compatibility view,
// used only when the engine runs with DenseRounds. The O(m) clear is the
// price of the dense representation itself.
func (s *clusterSource) NextRound() ([]*codec.Packet, error) {
	msg, err := s.next()
	if err != nil {
		return nil, err
	}
	if s.dense == nil {
		s.dense = make([]*codec.Packet, s.m)
	}
	for i := range s.dense {
		s.dense[i] = nil
	}
	msg.rnd.Scatter(s.dense)
	return s.dense, nil
}

// Truth implements pipeline.RoundSource: ground truth relayed with the
// round frame (accuracy accounting only — redundancy feedback never reads
// it, so decision equality does not depend on the relay).
func (s *clusterSource) Truth(i int) (codec.Scene, bool) {
	if s.cur == nil {
		return codec.Scene{}, false
	}
	k := s.cur.rnd.Find(int32(i))
	if k < 0 || !s.cur.hasT[k] {
		return codec.Scene{}, false
	}
	return s.cur.truth[k], true
}

// NonIdle implements pipeline.RoundLister.
func (s *clusterSource) NonIdle() []int32 { return s.cur.rnd.IDs }

// Plan implements overload.Planner: the coordinator's reconciler already
// planned this round's effective budget and degradation mode; the worker
// only obeys. Orphan rounds carry the degraded local plan in the same
// fields, so nothing downstream distinguishes the two.
func (s *clusterSource) Plan() (float64, overload.Mode) {
	return s.cur.bEff, s.cur.mode
}

// remoteSelector implements knapsack.Selector by deferring the solve to the
// coordinator: it ships this worker's scored candidates and blocks until
// the grant (this worker's slice of the global selection, in global
// selection order) arrives. Distributing the *solve* could never be
// bit-identical to a single gate; distributing only the scoring is.
//
// When the coordinator is gone — orphan mode, or a death mid-decide — the
// solve falls back to the local greedy under the planned budget: degraded,
// never stalled.
type remoteSelector struct {
	w     *Worker
	cands []knapsack.Candidate
	buf   []byte
}

// Name implements knapsack.Selector.
func (*remoteSelector) Name() string { return "cluster-remote" }

// Select implements knapsack.Selector. The gate never calls it: it hands
// a knapsack.SparseSelector its candidates through SelectSparseAppend.
func (r *remoteSelector) Select(items []knapsack.Item, budget float64) []int {
	panic("cluster: remoteSelector solves sparse candidates only")
}

// SelectSparseAppend implements knapsack.SparseSelector: the gate's decide
// path hands the active candidates directly. Zero-value zero-cost
// candidates are not offered to the global solve.
func (r *remoteSelector) SelectSparseAppend(dst []int, cands []knapsack.Candidate, budget float64) []int {
	r.cands = r.cands[:0]
	for _, c := range cands {
		if c.Value == 0 && c.Cost == 0 {
			continue
		}
		r.cands = append(r.cands, c)
	}
	return r.solve(dst, budget)
}

// localSolve settles a round without a coordinator: the worker's own greedy
// over its own candidates under the planned budget.
func (r *remoteSelector) localSolve(dst []int, budget float64) []int {
	return r.w.greedy.SelectSparseAppend(dst, r.cands, budget)
}

// solve ships r.cands to the coordinator and blocks for the grant. The
// budget argument (the planner's bEff) is ignored while connected — the
// coordinator's grant embodies the global plan — and drives the local
// fallback solve otherwise.
func (r *remoteSelector) solve(dst []int, budget float64) []int {
	w := r.w
	if w.src.orphan != nil {
		sel := r.localSolve(dst, budget)
		w.src.orphan.decoded += int64(len(sel) - len(dst))
		return sel
	}
	var offered float64
	for _, c := range r.cands {
		offered += c.Cost
	}
	round := w.src.cur.round
	r.buf = encodeCandidates(r.buf[:0], round, offered, r.cands)
	if err := w.send(fCandidates, r.buf); err != nil {
		if w.recoverable() {
			// Coordinator died mid-decide: settle locally rather than
			// stall; the next round recovers (re-home or orphan).
			return r.localSolve(dst, budget)
		}
		w.fail(err)
		return dst
	}
	sess := w.session()
	// Prefer a grant already delivered over a concurrent session death.
	select {
	case g := <-w.grantCh:
		return r.granted(dst, g, round)
	default:
	}
	select {
	case g := <-w.grantCh:
		return r.granted(dst, g, round)
	case <-sess.down:
		if w.recoverable() {
			return r.localSolve(dst, budget)
		}
		return dst
	case <-w.stop:
		// Dying mid-decide: settle the round empty; the engine then
		// surfaces the failure out of NextRound.
		return dst
	case <-w.bye:
		return dst
	}
}

// granted applies a grant frame, folding the granted cost into the orphan
// budget estimate.
func (r *remoteSelector) granted(dst []int, g grantMsg, round int64) []int {
	w := r.w
	if g.round != round {
		w.fail(fmt.Errorf("cluster: grant for round %d while deciding round %d", g.round, round))
		return dst
	}
	var cost float64
	for _, s := range g.streams {
		cost += candCost(r.cands, s)
	}
	src := w.src
	if src.grantSeen {
		src.grantEWMA += demandAlpha * (cost - src.grantEWMA)
	} else {
		src.grantEWMA = cost
		src.grantSeen = true
	}
	return append(dst, g.streams...)
}
