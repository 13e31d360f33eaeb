// Fused preconditioner-apply + SpMV: the Krylov inner loop's hot pair
// z = (LU)^{-1} r followed by t = A z, executed as ONE scheduled pass
// (paper §VI: the iterative phase — apply plus matvec, every iteration —
// dominates end-to-end time).
//
// Three fusions, all bitwise-neutral:
//   * the rhs gather x = P r is folded into each forward-sweep row
//     (no permute-in pass),
//   * the solution scatter z = Pᵀ x is folded into each backward-sweep row
//     (no permute-out pass),
//   * the SpMV is streamed BEHIND the backward sweep inside the same
//     parallel region: each thread, after finishing its backward items,
//     processes its A-row chunks, each guarded by sparsified spin-waits on
//     the SAME ProgressCounters the backward sweep publishes — rows whose
//     column dependencies are satisfied start multiplying while other
//     threads are still solving. No barrier, no second kernel launch,
//   * and — when the plan has no lower stage and both sweeps run uniform
//     P2P — the FORWARD sweep joins the same region too: backward items
//     carry sparsified backward-on-forward waits (on a second counter bank)
//     and solve out of place, so a thread's backward rows start while other
//     threads still execute forward rows. One parallel region for the whole
//     solve + SpMV, zero fork/joins between the sweeps.
//
// Per Krylov iteration this removes one full pass over the vectors (the
// permute-out), two parallel-region fork/joins and the solve→SpMV barrier,
// while every row keeps its fixed CSR-order accumulation — the fused and
// unfused paths are bitwise-identical at any thread count.
//
// A tagged backward schedule (narrow levels serialized, or CSR-LS with every
// level tagged kBarrier) runs its sweep through exec_run's segment walk with
// the scatter still folded into each row, then the SpMV in a second region:
// the fused region hosts only uniform point-to-point sweeps.
#pragma once

#include <span>
#include <vector>

#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/solve.hpp"

namespace javelin {

/// Build-once companion of a (Factorization, A) pair: the SpMV phase of the
/// fused pass. A's rows are nnz-balanced across the backward schedule's
/// threads and blocked into chunks; each chunk stores the pruned wait list
/// (producer thread, backward item count) covering every column it reads.
struct FusedApplySpmv {
  int threads = 1;
  index_t n = 0;

  /// Thread t multiplies chunks [thread_ptr[t], thread_ptr[t+1]); chunk c
  /// covers A rows [chunk_begin[c], chunk_end[c]).
  std::vector<index_t> thread_ptr;
  std::vector<index_t> chunk_begin;
  std::vector<index_t> chunk_end;

  /// Sparsified waits per chunk, on the BACKWARD schedule's item counters:
  /// before chunk c, wait until wait_thread[w] has published wait_count[w]
  /// backward items, for w in [wait_ptr[c], wait_ptr[c+1]). (A tagged
  /// backward schedule never consults them: its SpMV runs after the sweep's
  /// region has joined.)
  std::vector<index_t> wait_ptr;
  std::vector<index_t> wait_thread;
  std::vector<index_t> wait_count;

  /// Rows per SpMV chunk the companion was built with (reused on retarget).
  index_t chunk_rows = 0;

  /// Cross-schedule waits of the single-region fused pass (forward sweep
  /// fused into the SAME parallel region as backward+SpMV): before BACKWARD
  /// item i, wait until forward thread fwd_wait_thread[w] has published
  /// fwd_wait_count[w] forward items, for w in [fwd_wait_ptr[i],
  /// fwd_wait_ptr[i+1]) — these gate each backward row's read of its own
  /// forward value. Built only when the companion was given the forward
  /// schedule and the plan has no lower stage (fwd_synced); the two-phase
  /// path never consults them.
  bool fwd_synced = false;
  std::vector<index_t> fwd_wait_ptr;
  std::vector<index_t> fwd_wait_thread;
  std::vector<index_t> fwd_wait_count;

  // --- statistics ----------------------------------------------------------
  index_t deps_total = 0;  ///< cross-thread column dependencies before pruning
  index_t deps_kept = 0;   ///< spin-waits actually stored
  index_t fwd_deps_total = 0;  ///< backward-on-forward deps before pruning
  index_t fwd_deps_kept = 0;   ///< backward-on-forward spin-waits stored

  index_t num_chunks() const noexcept {
    return static_cast<index_t>(chunk_begin.size());
  }
};

/// Default rows per fused-SpMV chunk.
inline constexpr index_t kDefaultSpmvChunkRows = 1024;

/// Build the fused-SpMV companion against an explicit backward schedule
/// (the retarget path rebuilds through this for the runtime team). `plan`
/// supplies the permutation; `a` is square with the factor's dimension.
/// Passing the matching forward schedule (`fwd`, same team) additionally
/// builds the backward-on-forward wait lists that let the runtime fuse the
/// forward sweep into the same parallel region (only possible — and only
/// attempted — when the plan has no lower stage).
FusedApplySpmv build_fused_apply_spmv(const ExecSchedule& bwd,
                                      const TwoStagePlan& plan,
                                      const CsrMatrix& a,
                                      index_t chunk_rows = kDefaultSpmvChunkRows,
                                      const ExecSchedule* fwd = nullptr);

/// Build the fused-SpMV companion for factor `f` and matrix `a` (square,
/// same dimension as the factor; in Krylov use `a` is the matrix `f` was
/// factored from). `chunk_rows` bounds the rows per SpMV chunk. The factor's
/// own forward schedule is offered for single-region fusion automatically.
FusedApplySpmv build_fused_apply_spmv(const Factorization& f,
                                      const CsrMatrix& a,
                                      index_t chunk_rows = kDefaultSpmvChunkRows);

/// The (team, backward schedule, fused-SpMV chunk structure) triple a fused
/// pass should run right now: the factor's own when the runtime team matches
/// the factor-time plan, otherwise retargeted through ws.sched (the cached
/// fused companion is rebuilt when the team, the matrix identity or the
/// chunk size changed). team <= 1 means "run the straight-line serial
/// sweep" — bwd/chunks are still valid but the serial path never consults
/// them. Shared by the scalar (ilu_apply_spmv) and panel
/// (ilu_apply_spmv_panel) fused passes so their retarget policy cannot
/// drift.
struct FusedRuntime {
  int team = 1;
  const ExecSchedule* bwd = nullptr;
  const FusedApplySpmv* chunks = nullptr;
  /// Forward schedule at the same team (null on the serial path); consulted
  /// only by the single-region fused pass.
  const ExecSchedule* fwd = nullptr;
};
FusedRuntime runtime_fused_schedule(const Factorization& f, const CsrMatrix& a,
                                    const FusedApplySpmv& fs,
                                    SolveWorkspace& ws);

/// z = (LU)^{-1} r and t = A z in one fused pass. r, z and t are in the
/// ORIGINAL row ordering and must not alias each other. Bitwise-identical to
/// `ilu_apply(f, r, z, ws)` followed by `spmv(a, part, z, t)` at any thread
/// count. When the runtime team differs from the factor-time plan the whole
/// fused pass — backward schedule AND SpMV chunks — is retargeted through
/// ws.sched (a team of one runs the straight-line serial sweep, which is
/// that team's schedule, not a fallback). Thread-safe across distinct
/// workspaces.
void ilu_apply_spmv(const Factorization& f, const CsrMatrix& a,
                    const FusedApplySpmv& fs, std::span<const value_t> r,
                    std::span<value_t> z, std::span<value_t> t,
                    SolveWorkspace& ws);

}  // namespace javelin
