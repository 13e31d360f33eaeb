// Scalable sparse triangular solve (stri) — the apply path the whole
// factorization is co-designed for (paper §VI: "the incomplete factorization
// may only be formed once, but stri may be called thousands of times").
//
// The forward (L) sweep reuses the SAME execution schedule as the upper-stage
// factorization (f.fwd): the dependency pattern of the forward solve is exactly
// the strictly-lower pattern of the factor, so the spin-wait sparsification
// built for the numeric phase is reused verbatim. Lower-stage rows are swept
// ER-style: their upper-column partial sums are embarrassingly parallel, and
// only the small corner coupling runs in row order. The backward (U) sweep runs
// under f.bwd, with the diagonal scale fused into the sweep — no separate
// D^{-1} pass over the vector. Both sweeps run on the exec/ executor under the
// factor's level tags (P2P by default, serialized narrow levels, or barrier
// CSR-LS) and RETARGET through the workspace's ScheduleCache when the runtime
// team differs from the factor-time plan — never a silent serial fallback.
//
// All parallel sweeps are bitwise-identical to the serial reference: every
// row's accumulation walks its CSR entries in the same ascending order, and
// each vector slot has exactly one writer.
#pragma once

#include <span>
#include <vector>

#include "javelin/exec/run.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/support/spinwait.hpp"

namespace javelin {

/// Reusable scratch for repeated ilu_apply calls (permuted rhs/solution, the
/// lower-stage partial sums, the P2P progress counters both sweeps re-arm
/// instead of reallocating, and the retargeted-schedule cache the sweeps
/// re-plan through when the runtime team differs from the factor-time
/// plan). Kept outside the Factorization so multiple solves may share one
/// immutable factor with private workspaces. Move-only: the counters are
/// atomics.
struct SolveWorkspace {
  std::vector<value_t> x;          ///< permuted vector/panel being solved in place
  std::vector<value_t> lower_acc;  ///< partial sums of the lower-stage rows
  ProgressCounters progress;       ///< spin-wait counters reused every sweep
  ScheduleCache sched;             ///< runtime-retargeted schedules (lazy)

  /// Second counter bank + out-of-place backward solution used only by the
  /// single-region fused pass (fused.cpp): the forward sweep publishes on
  /// progress_fwd while the backward sweep publishes on progress, and the
  /// backward solve writes xb so concurrently-running forward rows keep
  /// reading unclobbered forward values from x. Sized lazily by that path.
  ProgressCounters progress_fwd;
  std::vector<value_t> xb;

  void resize(index_t n, index_t n_lower) {
    x.resize(static_cast<std::size_t>(n));
    lower_acc.resize(static_cast<std::size_t>(n_lower));
  }

  /// Panel (multi-RHS) sizing: x holds a column-major n×k panel, lower_acc
  /// an n_lower×k panel of lower-stage partial sums. Grows only (a workspace
  /// cycling between panel widths keeps the high-water allocation).
  void resize_panel(index_t n, index_t n_lower, index_t k) {
    const std::size_t uk = static_cast<std::size_t>(k);
    if (x.size() < static_cast<std::size_t>(n) * uk) {
      x.resize(static_cast<std::size_t>(n) * uk);
    }
    if (lower_acc.size() < static_cast<std::size_t>(n_lower) * uk) {
      lower_acc.resize(static_cast<std::size_t>(n_lower) * uk);
    }
  }
};

/// Serial reference: x = U^{-1} L^{-1} b on the permuted factor. `b` and `x`
/// are in the factor's (permuted) row ordering; x may alias b.
void trsv_serial(const CsrMatrix& lu, std::span<const index_t> diag_pos,
                 std::span<const value_t> b, std::span<value_t> x);

/// In-place P2P forward sweep on the permuted factor: on entry x is the
/// permuted rhs, on exit L x' = x (unit diagonal implicit). Upper-stage rows
/// run under f.fwd; lower-stage rows run as a parallel partial-sum pass plus
/// an ordered corner sweep (ws.lower_acc is the scratch). Returns kAborted
/// only when the factor's fault-injection hook vetoed a row (tests); the
/// hook-free path is unguarded and always kOk.
ExecStatus trsv_forward(const Factorization& f, std::span<value_t> x,
                        SolveWorkspace& ws);

/// In-place P2P backward sweep: x := U^{-1} x, diagonal divide fused. Shares
/// ws.progress with the forward sweep (the sweeps never overlap). Same
/// abort semantics as trsv_forward.
ExecStatus trsv_backward(const Factorization& f, std::span<value_t> x,
                         SolveWorkspace& ws);

/// Serial in-place variants (reference paths for tests and fallback).
void trsv_forward_serial(const Factorization& f, std::span<value_t> x);
void trsv_backward_serial(const Factorization& f, std::span<value_t> x);

/// Preconditioner application z = (L U)^{-1} r with r and z in the ORIGINAL
/// row ordering (the plan permutation is applied on the way in and undone on
/// the way out, so callers never see the level ordering). r and z must not
/// alias. Thread-safe across distinct workspaces. Throws AbortError when a
/// fault-injection hook aborted a sweep (converted OUTSIDE the parallel
/// region; z is untouched); use ilu_apply_status for the non-throwing form.
void ilu_apply(const Factorization& f, std::span<const value_t> r,
               std::span<value_t> z, SolveWorkspace& ws);

/// Non-throwing ilu_apply: reports a hook-driven abort as a status instead
/// of AbortError. On kAborted, z is not written.
ExecStatus ilu_apply_status(const Factorization& f, std::span<const value_t> r,
                            std::span<value_t> z, SolveWorkspace& ws);

/// Convenience overload with a per-call workspace (allocates; prefer the
/// workspace overload in iterative loops).
void ilu_apply(const Factorization& f, std::span<const value_t> r,
               std::span<value_t> z);

/// Serial-reference ilu_apply used by the property tests.
void ilu_apply_serial(const Factorization& f, std::span<const value_t> r,
                      std::span<value_t> z, SolveWorkspace& ws);

}  // namespace javelin
