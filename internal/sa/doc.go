// Package sa is the simulated-annealing engine both exploration stages of
// the SoMa framework share (paper Sec. V-C).
//
// # Serial search (Run)
//
// Starting from an initial MoveState, each iteration applies a random
// operator, evaluates the candidate, always accepts improvements and accepts
// regressions with probability p = exp((c-c')/(c*T_n)), where the
// temperature follows the paper's schedule T_n = T0*(1-n/N)/(1+alpha*n/N).
// An optional wall-clock deadline switches the tail of the search to
// improve-only iterations (the paper's "Y more iterations" rule).
//
// The engine is generic over the state type. Stage 1 anneals *core.Encoding
// (the Layer-Fusion-related Attributes) through CloneMoves, the one
// clone-per-candidate adapter, and the Cocco baseline reuses that adapter for
// its fusion search; stage 2 anneals *core.Schedule (the
// DRAM-Load-and-Store-related Attributes) through its own incremental
// MoveState. Run and RunPortfolio are the package's only two entry points,
// and both take a context for cooperative cancellation.
//
// # Portfolio search (RunPortfolio)
//
// RunPortfolio is the parallel extension of the paper's search: it runs
// several independently seeded chains (seed, seed+1, ...) from the same
// initial solution - a classic portfolio of restarts - on a bounded worker
// pool, and selects the winner by (cost, chain index). Because every chain
// is deterministic given its seed and the selection rule is total, the
// result is a pure function of the configuration: the Workers knob changes
// wall-clock time only, never the returned schedule. This is what makes
// figure sweeps reproducible while still scaling across cores.
package sa
