package core

import "packetgame/internal/predictor"

// useReferenceForward makes g score through the predictor's float64
// autodiff forward (PredictBatch) instead of the compiled float32 one: the
// reference the fast path is checked against.
func (g *Gate) useReferenceForward() {
	g.decideMu.Lock()
	defer g.decideMu.Unlock()
	p, tasks := g.cfg.Predictor, g.tasks
	g.forward = func(feats []predictor.Features, out []float64) error {
		for k, row := range p.PredictBatch(feats) {
			copy(out[k*tasks:(k+1)*tasks], row)
		}
		return nil
	}
}

// dropScoreCache invalidates every cached network confidence, so the next
// Decide runs the forward for every stream it scores: the dense recompute
// the score cache must match.
func (g *Gate) dropScoreCache() {
	g.decideMu.Lock()
	defer g.decideMu.Unlock()
	clear(g.cacheValid)
}
