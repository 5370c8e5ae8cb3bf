package main

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/pipeline"
)

// timeline holds per-round timestamps taken at the round loop — the
// engine for a single gate, the coordinator for the cluster — in
// nanoseconds since base. Round r is served between srcEnd[r] (its packets
// are in hand) and srcStart[r+1] (the loop asks for the next round, which
// it does only after round r's feedback has landed), so the generator's
// own time, srcEnd[r]−srcStart[r], stays outside every round time.
type timeline struct {
	base     time.Time
	srcStart []int64 // one per source call: rounds served + the final call
	srcEnd   []int64 // one per round served
	active   []int32 // streams delivering a packet, per round
	decided  []int64 // the round's selection is known (OnRound)
	settled  []int64 // the round's reports are in (cluster OnRoundEnd)
}

func newTimeline() *timeline {
	const capHint = 1 << 14
	return &timeline{
		base:     time.Now(),
		srcStart: make([]int64, 0, capHint),
		srcEnd:   make([]int64, 0, capHint),
		active:   make([]int32, 0, capHint),
		decided:  make([]int64, 0, capHint),
	}
}

func (tl *timeline) now() int64 { return int64(time.Since(tl.base)) }

// rounds is the number of rounds the loop served and finished: a round
// counts once the loop came back for the next one.
func (tl *timeline) rounds() int {
	n := len(tl.srcEnd)
	if len(tl.srcStart) < n+1 {
		n = len(tl.srcStart) - 1
	}
	if n < 0 {
		return 0
	}
	return n
}

// roundMs is round r's service time: packets in hand to next request.
func (tl *timeline) roundMs(r int) float64 {
	return float64(tl.srcStart[r+1]-tl.srcEnd[r]) / 1e6
}

// sourceMs is the time the loop spent inside round r's source call.
func (tl *timeline) sourceMs(r int) float64 {
	return float64(tl.srcEnd[r]-tl.srcStart[r]) / 1e6
}

// errDense reports that the loop fell off the sparse round path, which
// every workload must stay on.
var errDense = errors.New("perfbench: the round loop asked for a dense round")

// roundSource wraps a workload's round generator at the round loop. It
// timestamps each source call, ends the run at its deadline or round cap
// (by reporting io.EOF), and publishes the index of the round being served
// so checks and tracing wrappers on other goroutines can attribute their
// work to it.
type roundSource struct {
	inner    pipeline.SparseRoundSource
	tl       *timeline
	deadline time.Time // zero: none
	limit    int       // rounds to serve; 0: no cap
	// start, when non-nil, holds back the first round until it is closed:
	// set-up ends before the timed section begins.
	start <-chan struct{}
	// truth, when non-nil, replaces the generator's ground truth (the
	// network source has none of its own).
	truth func(i int) (codec.Scene, bool)
	// fetched, when non-nil, runs after each round is fetched.
	fetched func(round int64) error

	cur   *codec.Round
	round atomic.Int64
}

func newRoundSource(inner pipeline.SparseRoundSource, tl *timeline) *roundSource {
	s := &roundSource{inner: inner, tl: tl}
	s.round.Store(-1)
	return s
}

// NextRoundSparse implements pipeline.SparseRoundSource.
func (s *roundSource) NextRoundSparse() (*codec.Round, error) {
	if s.start != nil {
		<-s.start
		s.start = nil
	}
	s.tl.srcStart = append(s.tl.srcStart, s.tl.now())
	n := len(s.tl.srcEnd)
	if (s.limit > 0 && n >= s.limit) || (!s.deadline.IsZero() && time.Now().After(s.deadline)) {
		return nil, io.EOF
	}
	r, err := s.inner.NextRoundSparse()
	if err != nil {
		return nil, err
	}
	s.tl.srcEnd = append(s.tl.srcEnd, s.tl.now())
	s.tl.active = append(s.tl.active, int32(r.Len()))
	s.cur = r
	s.round.Store(int64(n))
	if s.fetched != nil {
		if err := s.fetched(int64(n)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// NextRound implements pipeline.RoundSource. The round loops prefer the sparse
// call; reaching this means a wrapper hid it, which the run reports.
func (s *roundSource) NextRound() ([]*codec.Packet, error) { return nil, errDense }

// Truth implements pipeline.RoundSource.
func (s *roundSource) Truth(i int) (codec.Scene, bool) {
	if s.truth != nil {
		return s.truth(i)
	}
	return s.inner.Truth(i)
}

// checker holds the output checks every run must pass: each round is
// decided exactly once and in order, its selection is duplicate-free and a
// subset of the streams that delivered, and the decode cost the gates
// committed stays within the round's budget. It also folds the decision
// hash, keeping the running value after every round so two runs of
// different length can be compared over their common prefix.
type checker struct {
	budget float64
	// spent returns the cumulative decode cost the gate (or every cluster
	// worker's gate together) has committed.
	spent     func() float64
	lastSpent float64

	mark   []bool
	h      uint64
	hashes []uint64

	problems  []string
	nproblems int
}

func newChecker(m int, budget float64, spent func() float64) *checker {
	return &checker{budget: budget, spent: spent, mark: make([]bool, m), h: fnvOffset,
		hashes: make([]uint64, 0, 1<<14)}
}

func (c *checker) fail(format string, args ...any) {
	c.nproblems++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// selection checks round r's selection against the round it was made for.
func (c *checker) selection(r int64, rnd *codec.Round, sel []int) {
	if want := int64(len(c.hashes)); r != want {
		c.fail("round %d decided when round %d was due", r, want)
	}
	for _, id := range rnd.IDs {
		c.mark[id] = true
	}
	for _, i := range sel {
		switch {
		case i < 0 || i >= len(c.mark):
			c.fail("round %d selected stream %d outside the fleet", r, i)
		case !c.mark[i]:
			c.fail("round %d selected stream %d twice or without a packet", r, i)
		default:
			c.mark[i] = false // a second selection of i now fails
		}
	}
	for _, id := range rnd.IDs {
		c.mark[id] = false
	}
	c.h = foldRound(c.h, r, sel)
	c.hashes = append(c.hashes, c.h)
}

// cost checks the decode cost committed since the previous call against
// the round's budget.
func (c *checker) cost(r int64) {
	s := c.spent()
	if d := s - c.lastSpent; d > c.budget*(1+1e-9) {
		c.fail("round %d spent %.4f decode units over a budget of %.4f", r, d, c.budget)
	}
	c.lastSpent = s
}

// hash is the decision hash over every round checked.
func (c *checker) hash() uint64 { return c.h }

// hashAt is the decision hash over the first n rounds.
func (c *checker) hashAt(n int) uint64 {
	if n == 0 {
		return fnvOffset
	}
	return c.hashes[n-1]
}
