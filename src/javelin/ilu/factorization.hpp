// The complete Javelin factorization object: symbolic pattern, two-stage
// plan, execution schedules (factorization + forward solve share one;
// backward solve has its own; both run on the one exec/ executor, P2P
// spin-waits unless levels are tagged serial or barrier), and the numeric
// factor itself. Built
// once, then reused by thousands of triangular solves (paper §VI: "the
// incomplete factorization may only be formed once, but stri may be called
// thousands of times").
#pragma once

#include <memory>
#include <vector>

#include "javelin/exec/schedule.hpp"
#include "javelin/ilu/options.hpp"
#include "javelin/ilu/plan.hpp"
#include "javelin/ilu/row_kernel.hpp"
#include "javelin/ilu/symbolic.hpp"
#include "javelin/sparse/csr.hpp"
#include "javelin/support/parallel.hpp"

namespace javelin {

struct Factorization;
struct FusedApplySpmv;

/// Consumer-side cache of schedules re-planned (retargeted) for a runtime
/// team that differs from the factor-time plan. One immutable factor can
/// serve many solvers: each keeps its own cache (SolveWorkspace embeds one)
/// and the factor itself carries one for the numeric refactorization path.
/// Copying yields an EMPTY cache — retargeted schedules are scratch,
/// rebuilt on demand.
struct ScheduleCache {
  int threads = 0;  ///< team the cached schedules target; 0 = empty
  ExecSchedule fwd, bwd;
  /// Fused-SpMV companion rebuilt against `bwd` (filled lazily by
  /// ilu_apply_spmv; null until the fused path retargets). The chunk wait
  /// lists depend on A's column structure, so the cache records which A it
  /// was built from — by address, nnz AND column-array address, so a
  /// recycled heap address alone cannot serve stale chunks for a different
  /// matrix.
  std::unique_ptr<FusedApplySpmv> fused;
  const CsrMatrix* fused_matrix = nullptr;
  const index_t* fused_cols = nullptr;
  index_t fused_nnz = 0;

  ScheduleCache();
  ScheduleCache(const ScheduleCache&);  ///< copies as empty
  ScheduleCache(ScheduleCache&&) noexcept;
  ScheduleCache& operator=(const ScheduleCache&);  ///< resets to empty
  ScheduleCache& operator=(ScheduleCache&&) noexcept;
  ~ScheduleCache();
};

/// Per-thread row workspaces of the numeric phase, one allocation each (no
/// shared cache lines), created on first use and kept across refactors:
/// allocating and zeroing them on every call cost page faults on each
/// refactor and tied its time to the heap layout. Scratch, like
/// ScheduleCache: a copy starts empty.
struct RowWorkspaces {
  std::vector<std::unique_ptr<RowWorkspace>> ws;

  RowWorkspaces() = default;
  RowWorkspaces(const RowWorkspaces&) noexcept {}
  RowWorkspaces(RowWorkspaces&&) noexcept = default;
  RowWorkspaces& operator=(const RowWorkspaces&) noexcept {
    ws.clear();
    return *this;
  }
  RowWorkspaces& operator=(RowWorkspaces&&) noexcept = default;
  ~RowWorkspaces() = default;
};

struct Factorization {
  IluOptions opts;
  SymbolicStats symbolic;
  TwoStagePlan plan;

  /// The factor in the plan's permuted ordering: L (unit diag implicit)
  /// strictly below, U (incl. diagonal) on/above.
  CsrMatrix lu;
  std::vector<index_t> diag_pos;

  /// Upper-stage schedule (factorization + forward solve).
  ExecSchedule fwd;
  /// Backward-solve schedule over all rows.
  ExecSchedule bwd;
  /// Lower-stage work prefix (the paper's segmented scan over the moved
  /// rows): lower_work[i] is the elimination work of permuted rows
  /// [n_upper, n_upper + i) against the upper stage, so its size is
  /// num_lower_rows + 1 (empty when nothing moved). A row's work is its
  /// nonzero count (mark + scan) plus the U-row lengths its upper-column
  /// entries update. lower_row_block cuts it for any team at run time.
  std::vector<offset_t> lower_work;
  /// Retargeted schedules for a refactorization team that differs from the
  /// plan (ilu_factor_numeric); solves cache in their workspace instead.
  ScheduleCache numeric_cache;
  /// Row workspaces of the numeric phase (ilu_factor_numeric_status).
  RowWorkspaces numeric_ws;

  /// Persistent refactor scatter map: a_scatter[k] is the position in
  /// lu.values() receiving the k-th nonzero of the (unpermuted) input
  /// matrix, or kInvalidIndex when that entry fell outside the factor
  /// pattern. Built once at factor time; turns every subsequent
  /// scatter_values into a flat O(nnz) copy with no permutation inversion
  /// and no per-nonzero binary search.
  std::vector<index_t> a_scatter;

  index_t n() const noexcept { return lu.rows(); }
};

/// Outcome of the numeric factorization phase. The numeric phase is the
/// only part of the pipeline that can fail on VALUES (an unusable pivot);
/// structural problems (missing diagonal, non-square input) still throw
/// from the symbolic phase because no shift or retry can repair them.
enum class FactorOutcome : std::uint8_t { kOk, kBadPivot };

struct FactorStatus {
  FactorOutcome outcome = FactorOutcome::kOk;
  /// Permuted index of the first row whose pivot failed (zero/subthreshold/
  /// non-finite magnitude, or a fault-injection veto); kInvalidIndex on kOk.
  index_t row = kInvalidIndex;

  bool ok() const noexcept { return outcome == FactorOutcome::kOk; }
};

/// Factor `a` with the full Javelin pipeline (preordering, level planning,
/// permutation, two-stage parallel numeric factorization). The preordering
/// (IluOptions::ordering; the paper assumes "the given matrix is already
/// ordered", §IV) and the plan's level permutation are composed into
/// plan.perm; callers keep working in `a`'s order. Throws Error on a numeric
/// breakdown; use ilu_prepare + ilu_factor_numeric_status for the
/// non-throwing pipeline.
Factorization ilu_factor(const CsrMatrix& a, const IluOptions& opts = {});

/// Everything in ilu_factor EXCEPT the numeric phase: preordering, symbolic
/// analysis, planning, permutation, scatter map and execution schedules.
/// The returned factor holds A's (scattered) values, not L/U. Pairing this
/// with ilu_factor_numeric_status gives a breakdown-safe factorization where
/// the expensive analysis is paid once and each numeric attempt (e.g. the
/// shift-ladder retries of RobustSolver) is an O(nnz) scatter + sweep.
Factorization ilu_prepare(const CsrMatrix& a, const IluOptions& opts = {});

/// Re-run the numeric phase with new values but the same pattern and plan
/// (time-stepping use case); the ordering chosen at prepare time is kept,
/// never recomputed. `a` must have the pattern of the original matrix.
/// Throws Error on breakdown.
void ilu_refactor(Factorization& f, const CsrMatrix& a);

/// Numeric phase only, on an already-permuted symbolic factor. Exposed for
/// tests/benches that want to time stages separately. Throws on breakdown.
void ilu_factor_numeric(Factorization& f);

/// Non-throwing numeric phase: a bad pivot aborts the parallel region
/// cooperatively (exec/run.hpp) and is reported as a FactorStatus instead
/// of an exception. On kBadPivot the factor's values are garbage; rescatter
/// before the next attempt.
FactorStatus ilu_factor_numeric_status(Factorization& f);

/// Non-throwing refactorization: scatter + ilu_factor_numeric_status.
FactorStatus ilu_refactor_status(Factorization& f, const CsrMatrix& a);

/// Scatter values of (unpermuted) `a` onto the permuted factor pattern.
/// Uses (and lazily builds) the persistent f.a_scatter map.
void scatter_values(Factorization& f, const CsrMatrix& a);

/// Build f.a_scatter for `a` (which must share the factored matrix's
/// pattern). Called by ilu_factor; exposed for tests and benches.
void build_scatter_map(Factorization& f, const CsrMatrix& a);

/// The pre-scatter-map algorithm (per-call permutation inversion plus a
/// binary search per nonzero), kept as the benchmark baseline the persistent
/// map is measured against.
void scatter_values_searched(Factorization& f, const CsrMatrix& a);

/// Permuted rows [begin, end) that thread t of a `team`-thread lower pass
/// owns: the blocks for t = 0..team-1 are contiguous, in order, cover
/// [n_upper, n), and each carries at most total/team plus the heaviest
/// row's work (binary searches of f.lower_work; no per-team state).
Range lower_row_block(const Factorization& f, int team, int t);

// --- runtime retargeting (ilu/retarget.cpp) --------------------------------

/// The team a sweep over `f` should launch right now: the factor-time plan,
/// clamped by the current OpenMP runtime setting (omp_set_num_threads /
/// OMP_NUM_THREADS) and — when opts.retarget_oversubscribed — by the
/// hardware core count. Never less than 1.
int runtime_team(const Factorization& f);

/// Schedules matching runtime_team(f): the factor's own when the team equals
/// the plan, otherwise re-planned through `cache` (both directions rebuilt
/// together, and only when the team changed since the cache was filled).
/// Retargeted schedules are bitwise-identical to a fresh build at that team
/// (test_exec), so no solve path ever degrades to a serial sweep on a
/// team-size mismatch — it re-plans.
const ExecSchedule& runtime_fwd(const Factorization& f, ScheduleCache& cache);
const ExecSchedule& runtime_bwd(const Factorization& f, ScheduleCache& cache);

/// Tag every level of f.fwd and f.bwd with `regime` in place (apply_level_tags
/// rebuilds the waits a previous tagging pruned). Legal at any time: every
/// regime runs the same (level, thread) slices, so results do not change.
/// kBarrier gives the CSR-LS baseline (the bench races it against P2P on
/// one factor); kP2P drops all tags and pins the paper's pure
/// point-to-point sweeps on a default factor.
void tag_all_levels(Factorization& f, LevelRegime regime);

/// Install the default per-level regimes on f.fwd and f.bwd:
/// narrow_level_tags at the plan's α (plan.min_level_rows). A direction the
/// rule leaves uniform is not touched. ilu_prepare applies this to every
/// factor; the tuner's hybrid candidate is the same rule.
void tag_narrow_levels(Factorization& f);

}  // namespace javelin
