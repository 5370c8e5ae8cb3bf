package core

import (
	"sync"
	"testing"

	"packetgame/internal/codec"
)

// concFleet builds m deterministic synthetic cameras.
func concFleet(m int, seed int64) []*codec.Stream {
	streams := make([]*codec.Stream, m)
	for i := range streams {
		streams[i] = codec.NewStream(
			codec.SceneConfig{BaseActivity: 0.5, PersonRate: 0.4},
			codec.EncoderConfig{StreamID: i, GOPSize: 8},
			seed+int64(i)*31)
	}
	return streams
}

func nextRoundPkts(streams []*codec.Stream) []*codec.Packet {
	pkts := make([]*codec.Packet, len(streams))
	for i, st := range streams {
		pkts[i] = st.Next()
	}
	return pkts
}

// syntheticNecessary is a deterministic stand-in for redundancy feedback.
func syntheticNecessary(round int, sel []int) []bool {
	nec := make([]bool, len(sel))
	for k, i := range sel {
		nec[k] = (round+i)%3 == 0
	}
	return nec
}

// TestGateMultiPendingQueue exercises the decided-but-unacked FIFO: up to
// MaxPending rounds may be outstanding, the next Decide fails, and feedback
// retires rounds strictly in decision order.
func TestGateMultiPendingQueue(t *testing.T) {
	const m, k = 6, 3
	g, err := NewGate(Config{Streams: m, Budget: 4, UseTemporal: true, MaxPending: k})
	if err != nil {
		t.Fatal(err)
	}
	streams := concFleet(m, 5)
	var sels [][]int
	for r := 0; r < k; r++ {
		sel, err := g.Decide(nextRoundPkts(streams))
		if err != nil {
			t.Fatalf("decide %d of %d: %v", r+1, k, err)
		}
		sels = append(sels, sel)
	}
	if g.Pending() != k {
		t.Fatalf("pending = %d, want %d", g.Pending(), k)
	}
	if _, err := g.Decide(nextRoundPkts(streams)); err == nil {
		t.Fatal("Decide beyond MaxPending must fail")
	}
	// Acking a round whose selection does not match the oldest pending
	// round must fail without consuming it (out-of-order ack guard).
	if len(sels[0]) > 0 {
		bad := make([]bool, len(sels[0])+1)
		if err := g.Feedback(append(append([]int(nil), sels[0]...), sels[0][0]), bad); err == nil {
			t.Fatal("mismatched feedback length must fail")
		}
		if g.Pending() != k {
			t.Fatalf("failed feedback consumed a round: pending = %d", g.Pending())
		}
	}
	for r, sel := range sels {
		if err := g.Feedback(sel, syntheticNecessary(r, sel)); err != nil {
			t.Fatalf("feedback %d: %v", r, err)
		}
	}
	if g.Pending() != 0 {
		t.Fatalf("pending = %d after full drain", g.Pending())
	}
	// SetMaxPending takes effect for subsequent rounds.
	g.SetMaxPending(1)
	if _, err := g.Decide(nextRoundPkts(streams)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Decide(nextRoundPkts(streams)); err == nil {
		t.Fatal("Decide beyond lowered MaxPending must fail")
	}
}

// TestGateConcurrentDecideFeedback runs a producer goroutine deciding
// rounds against a consumer goroutine acking them (the staged engine's
// topology), so Decide overlaps Feedback with up to MaxPending > 1 rounds
// unacked, with concurrent Stats/Pending/Confidence readers and a stream
// migrator that exports and re-imports state whenever the gate is between
// rounds. Run under -race this validates the gate's locking.
func TestGateConcurrentDecideFeedback(t *testing.T) {
	const m, k, rounds = 32, 4, 300
	g, err := NewGate(Config{Streams: m, Budget: 10, UseTemporal: true, MaxPending: k})
	if err != nil {
		t.Fatal(err)
	}
	streams := concFleet(m, 11)

	type decided struct {
		round int
		sel   []int
	}
	// At Decide time the unacked rounds are those queued here plus at most
	// one the consumer has popped but not yet fed back, so a buffer of k−2
	// keeps pending ≤ k−1 before each Decide and ≤ k after it.
	acks := make(chan decided, k-2)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = g.Stats()
				_ = g.Pending()
				_ = g.Confidence(w)
			}
		}(w)
	}
	// The migrator's Export/Import succeed only while no round is pending;
	// the rest of the time they must refuse (rounds pending, or the clock
	// moved between export and import) without touching the gate.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; ; i = (i + 1) % m {
			select {
			case <-stop:
				return
			default:
			}
			st, err := g.ExportStream(i)
			if err == nil {
				_ = g.ImportStream(i, st)
			}
		}
	}()
	var consumer sync.WaitGroup
	consumer.Add(1)
	consumerErr := make(chan error, 1)
	go func() {
		defer consumer.Done()
		for d := range acks {
			if err := g.Feedback(d.sel, syntheticNecessary(d.round, d.sel)); err != nil {
				select {
				case consumerErr <- err:
				default:
				}
				return
			}
		}
	}()

	for r := 0; r < rounds; r++ {
		sel, err := g.Decide(nextRoundPkts(streams))
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		acks <- decided{round: r, sel: sel}
	}
	close(acks)
	consumer.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-consumerErr:
		t.Fatal(err)
	default:
	}
	st := g.Stats()
	if st.Rounds != rounds {
		t.Errorf("rounds = %d, want %d", st.Rounds, rounds)
	}
	if g.Pending() != 0 {
		t.Errorf("pending = %d after drain", g.Pending())
	}
	// Drained, a migration round trip must succeed.
	exp, err := g.ExportStream(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ImportStream(3, exp); err != nil {
		t.Fatal(err)
	}
}
