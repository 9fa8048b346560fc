// Package exp implements the paper's experiments: every figure of the
// evaluation (Sec. VI) and discussion (Sec. VII) maps to one function here,
// shared between the somabench command and the root benchmark suite. The
// top-level README's paper-artifact map lists which command regenerates
// which figure.
//
// The package contains no search plumbing of its own. Every multi-point
// experiment - the Fig. 6 overall comparison (one sweep per platform over
// the cocco and soma backends), the Fig. 7 bandwidth x buffer heatmap, the
// Fig. 8 backend comparison, ObjectiveSweep and SeedSweep - is a thin
// adapter over the dse sweep runner (internal/dse), which supplies the one
// worker pool, the shared evaluation cache, and mid-grid cancellation. What
// remains here is figure-specific shaping: pairing backend rows into bar
// groups, geometric-mean summaries (Summarize), the Fig. 3 scatter
// construction, and the Fig. 7 insight statistics (AnalyzeDSE).
package exp
