package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"packetgame/internal/infer"
)

// section is one timed run of one workload instance: the round loop's
// timeline, the output checks, the totals the run reports, and, when
// traced, its per-layer metrics.
type section struct {
	tl *timeline
	ck *checker
	// warm leading rounds settle caches, lazily built state and the
	// learned estimates; they are checked and hashed but kept out of every
	// timing.
	warm int
	// acc0 and acc1 are monitor totals at two round boundaries — the end of
	// warm-up, and a fixed number of rounds later (or the run's end) — so
	// that accuracy and necessity, which drift as the gate keeps learning,
	// cover the same decisions however fast the rounds ran.
	acc0, acc1 accTotals
	// openLoop marks a paced workload: rounds fall due on a schedule, so
	// latency runs from each round's due time, and dueRounds rounds fell
	// due whether or not they arrived. due[r] and gen[r] are round r's due
	// time (ns since tl.base) and its generator's time, which is not the
	// program's and is left out.
	openLoop  bool
	due, gen  []int64
	dueRounds int
	// interval is the deadline ontime_frac counts against.
	interval time.Duration

	heapMB float64
	// quiet is the number of rounds a closed loop's median came from (see
	// quietMedian), set by endToEnd.
	quiet int

	// attempted and failed count operations: rounds, decodes, frames and
	// workers; failures are errored or missing rounds, decodes that failed,
	// CRC-dropped frames and worker deaths.
	attempted, failed int64

	mem0, mem1 runtime.MemStats // around the timed rounds
	layers     map[string]float64
	notes      []string
}

func (s *section) note(format string, args ...any) {
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}

// counted is the range of rounds that enter the timings and totals.
func (s *section) counted() (lo, hi int) {
	return s.warm, s.tl.rounds()
}

// accTotals are a fleet's monitor counters over rounds [0, at): stream-rounds
// observed, those whose emitted result matched the ground truth, and
// necessary decodes.
type accTotals struct {
	at                         int
	rounds, correct, necessary int64
}

func (t *accTotals) add(f *infer.Fleet) {
	r, c, _, n := f.Totals()
	t.rounds += r
	t.correct += c
	t.necessary += n
}

// latencyMs is round r's latency: from its due time to its feedback
// landing for a paced workload; in a closed loop a round falls due the
// moment the previous one settles, so latency is the round's time.
func (s *section) latencyMs(r int) float64 {
	if !s.openLoop {
		return s.tl.roundMs(r)
	}
	return float64(s.tl.srcStart[r+1]-s.due[r]-s.gen[r]) / 1e6
}

// endToEnd computes the end-to-end metrics of an untraced section.
//
// The host is shared, and its speed swings by up to 2x over tens to
// hundreds of milliseconds as neighbours load it, so how a statistic is
// taken matters as much as what it measures. A closed loop's median round
// time, and the rate it sets, come from the run's quiet stretches (see
// quietMedian). Every other statistic is taken on each of a few long
// blocks of the run and reported as the median over the blocks (see
// overBlocks), so a disturbance confined to one block does not move it.
// Tails are p95: on a shared host a block's p99 moves with how many of its
// rounds the neighbours happened to slow (ingest-paced's median p99 moved
// 44% between two sets of runs of the same code, its p95 12%).
func (s *section) endToEnd() map[string]float64 {
	tl := s.tl
	lo, hi := s.counted()
	var roundMs, latMs, pkts []float64
	for r := lo; r < hi; r++ {
		roundMs = append(roundMs, tl.roundMs(r))
		latMs = append(latMs, s.latencyMs(r))
		pkts = append(pkts, float64(tl.active[r]))
	}
	n := len(roundMs)
	limit := float64(s.interval) / 1e6
	ontime := func(a, b int) float64 {
		k := 0
		for _, l := range latMs[a:b] {
			if l <= limit {
				k++
			}
		}
		return ratio(float64(k), float64(b-a))
	}
	// Rounds that fell due but never arrived count as late: the on-time
	// share of the served rounds is scaled by the share that arrived.
	arrived := 1.0
	if s.openLoop {
		arrived = ratio(float64(n), float64(s.dueRounds-lo))
	}
	vals := map[string]float64{
		"round_ms_p95":        overBlocks(n, quantileOf(roundMs, 0.95)),
		"latency_ms_p95":      overBlocks(n, quantileOf(latMs, 0.95)),
		"ontime_frac":         overBlocks(n, ontime) * arrived,
		"accuracy":            ratio(float64(s.acc1.correct-s.acc0.correct), float64(s.acc1.rounds-s.acc0.rounds)),
		"necessary_per_round": ratio(float64(s.acc1.necessary-s.acc0.necessary), float64(s.acc1.at-s.acc0.at)),
		"heap_mb":             s.heapMB,
	}
	if s.openLoop {
		// Rounds fall due on a schedule: the rate is per wall time, and
		// latency includes the wait a slow round imposes on the next.
		vals["pkts_per_s"] = overBlocks(n, func(a, b int) float64 {
			return ratio(sum(pkts[a:b]), float64(tl.srcStart[lo+b]-tl.srcStart[lo+a])/1e9)
		})
		vals["round_ms_p50"] = overBlocks(n, quantileOf(roundMs, 0.5))
		vals["latency_ms_p50"] = overBlocks(n, quantileOf(latMs, 0.5))
	} else {
		// A round falls due when the previous one settles, so its latency
		// is its round time, and the loop gates a round's packets per
		// round time.
		ms, perRound, k := quietMedian(roundMs, pkts)
		s.quiet = k
		vals["round_ms_p50"], vals["latency_ms_p50"] = ms, ms
		vals["pkts_per_s"] = ratio(perRound, ms/1e3)
	}
	return vals
}

const (
	// blockRounds is the fewest timed rounds in one block of overBlocks (a
	// block's p95 then has fifty samples beyond it), unless the run is too
	// short for minBlocks such blocks: then it is cut into minBlocks
	// smaller ones.
	blockRounds = 1000
	minBlocks   = 3
	// quietRounds is the length of quietMedian's blocks, about a tenth of a
	// second of closed-loop rounds, the time scale on which the host's
	// speed swings; quietShare is the share of them it pools.
	quietRounds = 50
	quietShare  = 0.05
)

// overBlocks cuts n timed rounds into consecutive blocks — at least
// minBlocks, more while every block still holds blockRounds — evaluates
// stat on each block [lo, hi), and returns the median over the blocks.
func overBlocks(n int, stat func(lo, hi int) float64) float64 {
	nb := max(minBlocks, n/blockRounds)
	if n < nb {
		return stat(0, n)
	}
	per := make([]float64, nb)
	for b := range per {
		per[b] = stat(b*n/nb, (b+1)*n/nb)
	}
	return median(per)
}

// quietMedian is a closed loop's median round time over its quiet
// stretches, the mean packets per round there, and how many rounds those
// stretches hold. The timed rounds are
// cut into blocks of quietRounds; the quietShare of the blocks (at least
// one) with the lowest median round time are pooled. In a closed loop
// every slow phase of the host inflates the round times directly, and the
// share of a run it covers varies from a tenth to nine tenths, which moves
// a plain median between the host's fast and slow modes; the quietest
// twentieth of the run measures the program at the host's full speed. A
// change that slows every round slows the quiet blocks too.
func quietMedian(roundMs, pkts []float64) (ms, perRound float64, rounds int) {
	n := len(roundMs)
	nb := max(1, n/quietRounds)
	type block struct {
		lo, hi int
		med    float64
	}
	blocks := make([]block, nb)
	for b := range blocks {
		lo, hi := b*n/nb, (b+1)*n/nb
		blocks[b] = block{lo, hi, quantileOf(roundMs, 0.5)(lo, hi)}
	}
	sort.SliceStable(blocks, func(i, j int) bool { return blocks[i].med < blocks[j].med })
	var pool []float64
	var p float64
	for _, b := range blocks[:max(1, int(math.Round(quietShare*float64(nb))))] {
		pool = append(pool, roundMs[b.lo:b.hi]...)
		p += sum(pkts[b.lo:b.hi])
	}
	return quantile(pool, 0.5), ratio(p, float64(len(pool))), len(pool)
}

// writeRounds stores the timed rounds' service times and latencies as CSV,
// the distributions behind the end-to-end percentiles.
func (s *section) writeRounds(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "round,active,round_ms,latency_ms")
	lo, hi := s.counted()
	for r := lo; r < hi; r++ {
		fmt.Fprintf(w, "%d,%d,%.6f,%.6f\n", r, s.tl.active[r], s.tl.roundMs(r), s.latencyMs(r))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantileOf evaluates the q-quantile of a block of xs.
func quantileOf(xs []float64, q float64) func(lo, hi int) float64 {
	return func(lo, hi int) float64 { return quantile(append([]float64(nil), xs[lo:hi]...), q) }
}

// goLayers derives the Go runtime metrics of the timed rounds.
func (s *section) goLayers(out map[string]float64) {
	rounds := float64(s.tl.rounds())
	out["go.alloc_bytes_per_round"] = ratio(float64(s.mem1.TotalAlloc-s.mem0.TotalAlloc), rounds)
	out["go.gc_cycles_per_1k_rounds"] = ratio(1000*float64(s.mem1.NumGC-s.mem0.NumGC), rounds)
	out["go.gc_pause_ms_total"] = float64(s.mem1.PauseTotalNs-s.mem0.PauseTotalNs) / 1e6
}

// liveHeapMB is the live heap after a forced collection, in megabytes.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// tracePath is where a traced run of c writes its spans.
func tracePath(c config, suffix string) string {
	return filepath.Join(c.workdir, "trace-"+c.workload+suffix+".csv")
}
