// Package knapsack implements the combinatorial optimizer of PacketGame
// (§5.3) and the schedulers it is compared against: greedy selection by
// confidence/cost ratio (with the paper's 1−c/B approximation guarantee for
// approximately fractional costs), an exact dynamic-programming oracle, a
// fractional upper bound, round-robin, and random selection.
package knapsack

import (
	"math"
	"math/rand"
	"sort"
)

// Item is one selectable packet: its gating confidence (value) and its
// dependency-inclusive decode cost.
type Item struct {
	Value float64
	Cost  float64
}

// Selector chooses a subset of items whose total cost fits the budget.
// Implementations may keep state across rounds (e.g. round-robin's cursor).
type Selector interface {
	// Name identifies the policy in reports.
	Name() string
	// Select returns the indices of the chosen items, in selection order.
	Select(items []Item, budget float64) []int
}

// Candidate is one sparse knapsack candidate: the stream it stands for plus
// its gating value and dependency-inclusive cost. It is the compact form of
// a dense []Item slot — an Item array is indexed by stream, a Candidate
// carries its stream with it.
type Candidate struct {
	Stream int32
	Value  float64
	Cost   float64
}

// SparseSelector is an optional Selector extension for sparse fleets: the
// candidate list names only the streams in play this round (strictly
// ascending by Stream), so the selector touches O(active) state instead of
// an O(m) dense item array. Selected stream ids are appended to dst in
// selection order. Because candidates arrive in ascending stream order, a
// ratio sort with positional tie-break over the compact array selects
// exactly the streams the dense Greedy would (dense index order == compact
// position order), so sparse and dense paths stay bit-identical.
type SparseSelector interface {
	SelectSparseAppend(dst []int, cands []Candidate, budget float64) []int
}

// TotalValue sums the values of the selected indices.
func TotalValue(items []Item, sel []int) float64 {
	var v float64
	for _, i := range sel {
		v += items[i].Value
	}
	return v
}

// TotalCost sums the costs of the selected indices.
func TotalCost(items []Item, sel []int) float64 {
	var c float64
	for _, i := range sel {
		c += items[i].Cost
	}
	return c
}

// MaxCost returns the largest single-item cost (the c in 1−c/B).
func MaxCost(items []Item) float64 {
	var m float64
	for _, it := range items {
		if it.Cost > m {
			m = it.Cost
		}
	}
	return m
}

// Greedy is the paper's optimizer: items are ranked by value/cost ratio and
// taken while the budget lasts; remaining budget is then filled with any
// later items that still fit ("decode as many as possible packets that the
// current prioritized packet refers to" generalizes to this fill pass once
// reference costs are folded into Item.Cost by the dependency tracker).
//
// For approximately fractional costs it guarantees value ≥ (1−c/B)·OPT
// (Lemma 1). Complexity is O(m log m) per round.
type Greedy struct {
	// scratch reused across rounds: candidate order, per-item ratios, and the
	// sorter view over both. Safe because the gate serializes Select calls
	// under decideMu.
	rank ratioRank
}

// Name implements Selector.
func (*Greedy) Name() string { return "greedy" }

// Select implements Selector.
func (g *Greedy) Select(items []Item, budget float64) []int {
	return g.SelectAppend(nil, items, budget)
}

// SelectAppend is Select appending the selection indices to dst: the only
// steady-state cost is the O(m log m) sort.
func (g *Greedy) SelectAppend(dst []int, items []Item, budget float64) []int {
	g.rank.sortByRatio(items)
	remaining := budget
	for _, i := range g.rank.order {
		if items[i].Cost <= remaining {
			dst = append(dst, i)
			remaining -= items[i].Cost
		}
	}
	return dst
}

// SelectSparseAppend implements SparseSelector: the compact-candidate form
// of SelectAppend. Candidates arrive in ascending stream order, so the
// positional tie-break reproduces the dense index tie-break exactly and the
// appended stream ids match SelectAppend's on the equivalent dense array
// (zero slots omitted) in selection order.
func (g *Greedy) SelectSparseAppend(dst []int, cands []Candidate, budget float64) []int {
	g.rank.sortSparseByRatio(cands)
	remaining := budget
	for _, k := range g.rank.order {
		if cands[k].Cost <= remaining {
			dst = append(dst, int(cands[k].Stream))
			remaining -= cands[k].Cost
		}
	}
	return dst
}

// ratioRank is the shared ratio-ordering scratch: positive-value candidates
// ranked by descending value/cost ratio (zero-cost first), index tie-break.
// Ratios are precomputed so the sort comparator is two loads, and the sorter
// is a pointer receiver on persistent state so sort.Sort allocates nothing.
type ratioRank struct {
	order  []int
	ratios []float64
}

// rankShrinkFloor is the capacity below which ratioRank scratch is never
// reallocated downward: shrinking tiny buffers only causes churn.
const rankShrinkFloor = 1024

// ensure sizes the scratch for n items: it grows on demand and — so a
// transient m spike does not pin a giant buffer for the process lifetime —
// reallocates downward once the working size drops below a quarter of the
// retained capacity.
func (r *ratioRank) ensure(n int) {
	if c := cap(r.order); c < n || (c > rankShrinkFloor && n < c/4) {
		r.order = make([]int, 0, n)
		r.ratios = make([]float64, n)
	}
}

func (r *ratioRank) sortByRatio(items []Item) {
	r.ensure(len(items))
	r.order = r.order[:0]
	r.ratios = r.ratios[:len(items)]
	for i, it := range items {
		if it.Value > 0 {
			r.order = append(r.order, i)
			r.ratios[i] = ratio(it)
		}
	}
	sort.Sort(r)
}

func (r *ratioRank) sortSparseByRatio(cands []Candidate) {
	r.ensure(len(cands))
	r.order = r.order[:0]
	r.ratios = r.ratios[:len(cands)]
	for k, c := range cands {
		if c.Value > 0 {
			r.order = append(r.order, k)
			r.ratios[k] = ratio(Item{Value: c.Value, Cost: c.Cost})
		}
	}
	sort.Sort(r)
}

func (r *ratioRank) Len() int { return len(r.order) }

func (r *ratioRank) Less(a, b int) bool {
	ra, rb := r.ratios[r.order[a]], r.ratios[r.order[b]]
	if ra != rb {
		return ra > rb
	}
	return r.order[a] < r.order[b]
}

func (r *ratioRank) Swap(a, b int) { r.order[a], r.order[b] = r.order[b], r.order[a] }

func ratio(it Item) float64 {
	if it.Cost == 0 {
		return math.Inf(1)
	}
	return it.Value / it.Cost
}

// GreedyPrefix is Greedy without the fill pass: it stops at the first item
// that does not fit. It exists to ablate the fill pass and to match the
// textbook analysis exactly.
type GreedyPrefix struct{ rank ratioRank }

// Name implements Selector.
func (*GreedyPrefix) Name() string { return "greedy-prefix" }

// Select implements Selector.
func (g *GreedyPrefix) Select(items []Item, budget float64) []int {
	g.rank.sortByRatio(items)
	var sel []int
	remaining := budget
	for _, i := range g.rank.order {
		if items[i].Cost > remaining {
			break
		}
		sel = append(sel, i)
		remaining -= items[i].Cost
	}
	return sel
}

// RoundRobin is the stream-agnostic baseline of §3.2: it cycles through
// streams in fixed order, decoding as many as the budget allows each round,
// regardless of content.
type RoundRobin struct {
	cursor int
}

// Name implements Selector.
func (*RoundRobin) Name() string { return "round-robin" }

// Select implements Selector.
func (r *RoundRobin) Select(items []Item, budget float64) []int {
	m := len(items)
	if m == 0 {
		return nil
	}
	var sel []int
	remaining := budget
	for k := 0; k < m; k++ {
		i := (r.cursor + k) % m
		it := items[i]
		if it.Cost == 0 && it.Value == 0 {
			continue // idle stream
		}
		if it.Cost <= remaining {
			sel = append(sel, i)
			remaining -= it.Cost
			continue
		}
		if it.Cost > budget {
			// Unservable even with the whole budget (e.g. a dependency
			// chain longer than the budget): waiting would starve the
			// rotation forever, so skip past it this round.
			continue
		}
		// Budget exhausted for this stream; resume here next round.
		r.cursor = i
		return sel
	}
	r.cursor = (r.cursor + m) % m
	return sel
}

// Random selects a uniformly random feasible subset by shuffling and taking
// items while the budget lasts.
type Random struct {
	rng *rand.Rand
	idx []int
}

// NewRandom creates a random selector with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Selector.
func (*Random) Name() string { return "random" }

// Select implements Selector.
func (r *Random) Select(items []Item, budget float64) []int {
	if cap(r.idx) < len(items) {
		r.idx = make([]int, 0, len(items))
	}
	r.idx = r.idx[:0]
	for i, it := range items {
		if it.Cost > 0 || it.Value > 0 {
			r.idx = append(r.idx, i)
		}
	}
	r.rng.Shuffle(len(r.idx), func(a, b int) { r.idx[a], r.idx[b] = r.idx[b], r.idx[a] })
	var sel []int
	remaining := budget
	for _, i := range r.idx {
		if items[i].Cost <= remaining {
			sel = append(sel, i)
			remaining -= items[i].Cost
		}
	}
	return sel
}

// ExactDP solves the 0/1 knapsack exactly by dynamic programming over a
// discretized budget. It is exponentially cheaper than enumeration but still
// only suitable for small instances (tests and ablations, not production).
type ExactDP struct {
	// Scale discretizes costs: cost units per DP cell. Default 0.01.
	Scale float64
}

// Name implements Selector.
func (*ExactDP) Name() string { return "exact-dp" }

// Select implements Selector.
func (d *ExactDP) Select(items []Item, budget float64) []int {
	scale := d.Scale
	if scale <= 0 {
		scale = 0.01
	}
	w := int(math.Floor(budget/scale + 1e-9))
	if w < 0 {
		return nil
	}
	n := len(items)
	costs := make([]int, n)
	for i, it := range items {
		costs[i] = int(math.Ceil(it.Cost/scale - 1e-9))
	}
	// dp[j] = best value at capacity j; keep[i][j] records choices.
	dp := make([]float64, w+1)
	keep := make([][]bool, n)
	for i := 0; i < n; i++ {
		keep[i] = make([]bool, w+1)
		if items[i].Value <= 0 {
			continue
		}
		ci := costs[i]
		for j := w; j >= ci; j-- {
			if cand := dp[j-ci] + items[i].Value; cand > dp[j] {
				dp[j] = cand
				keep[i][j] = true
			}
		}
	}
	// Reconstruct.
	var sel []int
	j := w
	for i := n - 1; i >= 0; i-- {
		if keep[i][j] {
			sel = append(sel, i)
			j -= costs[i]
		}
	}
	// Reverse to ascending order for stable output.
	for a, b := 0, len(sel)-1; a < b; a, b = a+1, b-1 {
		sel[a], sel[b] = sel[b], sel[a]
	}
	return sel
}

// FractionalOPT returns the optimal value of the *fractional* relaxation:
// items sorted by ratio, the last one taken partially. It upper-bounds every
// 0/1 solution and is the opt_F of the Lemma 1 proof.
func FractionalOPT(items []Item, budget float64) float64 {
	order := make([]int, 0, len(items))
	for i, it := range items {
		if it.Value > 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		return ratio(items[order[a]]) > ratio(items[order[b]])
	})
	var v float64
	remaining := budget
	for _, i := range order {
		it := items[i]
		if it.Cost <= remaining {
			v += it.Value
			remaining -= it.Cost
			continue
		}
		if it.Cost > 0 && remaining > 0 {
			v += it.Value * remaining / it.Cost
		}
		break
	}
	return v
}
