// Batched Krylov serving: pcg_many drives k conjugate-gradient solves
// simultaneously over column-major n×k panels, so every SpMV and every
// preconditioner application is a register-blocked panel sweep (one pass
// over the matrix / factor entries for all k systems) instead of k scalar
// passes — the "apply thousands of times" axis of the paper batched across
// concurrent right-hand sides.
//
// Parity contract: column j of a pcg_many run is bitwise equal to a scalar
// pcg run on (A, column j of B) with the matching scalar preconditioner, at
// every thread count and level tagging — panel kernels keep each column's
// scalar accumulation order, the deterministic reductions see the same
// contiguous column spans, and a column that converges (or breaks down)
// RETIRES: its x / r / p / q columns are frozen exactly where the scalar
// solver would have returned, while the remaining columns keep sweeping.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "javelin/ilu/batch.hpp"
#include "javelin/solver/krylov.hpp"

namespace javelin {

/// Panel preconditioner Z = M^{-1} R for k right-hand sides stored
/// column-major in n×k panels (column stride n). Column j must be bitwise
/// equal to the scalar PrecondFn the caller compares against.
using PanelPrecondFn = std::function<void(
    std::span<const value_t>, std::span<value_t>, index_t)>;

/// ilu_apply_panel bound to one factorization and a shared WorkspacePool:
/// each call leases a workspace for the duration of the panel apply, so
/// concurrent serving streams can share one immutable factor. Both
/// references must outlive the returned functor.
PanelPrecondFn ilu_panel_preconditioner(const Factorization& f,
                                        WorkspacePool& pool);

/// Z = R (no preconditioning), panel form.
PanelPrecondFn identity_panel_preconditioner();

/// Preconditioned CG over k systems A x_j = b_j driven as one panel
/// iteration. `b` and `x` are column-major n×k panels (x holds the initial
/// guesses on entry, the solutions on exit). Returns one SolverResult per
/// column; result j is bitwise equal to scalar pcg on column j (see the
/// header comment). Throws when k < 1 or a panel is smaller than n×k.
std::vector<SolverResult> pcg_many(const CsrMatrix& a,
                                   std::span<const value_t> b,
                                   std::span<value_t> x, index_t k,
                                   const PanelPrecondFn& precond,
                                   const SolverOptions& opts = {});

}  // namespace javelin
