// Package cluster splits the PacketGame gate into a control plane and
// data-plane workers: a coordinator owns the budget policy, the placement
// ring, and the per-round knapsack solve, while N workers each run the
// existing gate over their slice of streams and speak PGCP (the
// PacketGame cluster protocol) over TCP.
//
// The design invariant is oracle equality: while the cluster is stable, the
// per-round decisions are bit-identical to a single giant gate that owns
// every stream. Workers score their streams locally (temporal estimator,
// feature store, breakers, dependency costs — the exact per-stream state a
// giant gate would hold, kept coherent across migrations by the core
// StreamState transfer layer), and the coordinator reassembles the dense
// per-round item array from their candidate frames and runs the same greedy
// solve over the global stream-ID space, with the same index tie-breaks.
// Splitting the *selection* per-worker could never be bit-identical — a
// knapsack over partitioned budgets is a different optimizer — so only the
// scoring is distributed; the solve stays central and exact.
package cluster

// splitmix64 is the placement hash: cheap, well-mixed, and stable across
// processes (no seed material from the runtime).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ringVNodes is the number of virtual nodes per worker. More vnodes smooth
// the per-worker share at the cost of a larger ring sort on membership
// change; 64 keeps the max/min stream share within ~±20% at 8 workers.
const ringVNodes = 64

type ringPoint struct {
	hash   uint64
	worker int
}

// Ring is a consistent-hash placement ring with virtual nodes. Stream i
// belongs to the worker owning the first ring point at or after hash(i).
// Membership changes move only the arcs adjacent to the added or removed
// worker's points: every stream that does not change owner keeps its worker,
// which is what bounds state transfer to the affected hash arcs.
type Ring struct {
	points []ringPoint
}

// NewRing builds a ring over the given worker IDs.
func NewRing(workers []int) *Ring {
	r := &Ring{}
	for _, w := range workers {
		r.Add(w)
	}
	return r
}

// Add inserts a worker's virtual nodes.
func (r *Ring) Add(worker int) {
	for v := 0; v < ringVNodes; v++ {
		h := splitmix64(uint64(worker)<<20 | uint64(v) | uint64(0xC1)<<56)
		p := ringPoint{hash: h, worker: worker}
		// Insertion sort: the ring is small (workers × vnodes) and
		// membership changes are rare.
		i := len(r.points)
		r.points = append(r.points, p)
		for i > 0 && r.points[i-1].hash > p.hash {
			r.points[i] = r.points[i-1]
			i--
		}
		r.points[i] = p
	}
}

// Remove deletes a worker's virtual nodes.
func (r *Ring) Remove(worker int) {
	out := r.points[:0]
	for _, p := range r.points {
		if p.worker != worker {
			out = append(out, p)
		}
	}
	r.points = out
}

// Owner returns the worker owning stream i, or -1 on an empty ring.
func (r *Ring) Owner(stream int) int {
	if len(r.points) == 0 {
		return -1
	}
	h := splitmix64(uint64(stream))
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0 // wrap to the first point
	}
	return r.points[lo].worker
}

// Owners fills dst (length m) with each stream's owner.
func (r *Ring) Owners(dst []int) {
	for i := range dst {
		dst[i] = r.Owner(i)
	}
}
