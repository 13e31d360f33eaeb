// User-facing options of the Javelin framework (paper §III: fill level k,
// drop tolerance τ, modified ILU, level pattern choice, the lower stage
// and the planner sensitivity knobs of Tables III/IV).
#pragma once

#include <functional>
#include <optional>

#include "javelin/graph/levels.hpp"
#include "javelin/order/orderings.hpp"
#include "javelin/support/types.hpp"

namespace javelin {

namespace obs {
class ExecObs;  // obs/exec_obs.hpp
}

/// Where a fault-injection hook fires (see IluOptions::fault_hook).
enum class FaultSite {
  kFactorRow,   ///< after a numeric-phase row factored (upper stage or corner)
  kForwardRow,  ///< after a forward-sweep scheduled/tail row
  kBackwardRow, ///< after a backward-sweep row (incl. fused/panel variants)
};

/// Test-only fault-injection hook: called with the site and the (permuted)
/// row just processed; returning false poisons that row exactly as a bad
/// pivot would, driving the cooperative-abort path of the executor.
/// An empty hook (the default) keeps every hot path on its unguarded,
/// zero-polling variant.
using FaultHook = std::function<bool(FaultSite, index_t)>;

struct IluOptions {
  // --- numerical options -----------------------------------------------
  /// Fill level k of ILU(k). 0 keeps exactly the pattern of A.
  int fill_level = 0;
  /// Drop tolerance τ of ILU(k,τ): computed entries with magnitude below
  /// τ·‖row‖₁/nnz(row) are zeroed (storage retained, value dropped). 0
  /// disables dropping.
  double drop_tolerance = 0.0;
  /// Modified ILU: add discarded fill (and dropped entries) to the diagonal
  /// so row sums are preserved [MacLachlan et al., paper ref 2].
  bool modified = false;
  /// Smallest pivot magnitude accepted; below this the factorization throws
  /// (Javelin, like most ILUs, does not pivot — paper §III).
  double pivot_threshold = 1e-14;

  // --- scheduling options ------------------------------------------------
  /// Preordering applied before the symbolic phase (paper §IV). ilu_prepare
  /// composes it with the level permutation into the one plan.perm, so
  /// every apply, refactor and scatter path stays in the caller's order, and
  /// ilu_refactor never re-orders. kAuto (the default) keeps natural order
  /// unless levels narrower than α hold at least kNarrowRowFracMin of the
  /// rows; then it computes RCM and keeps it only if RCM at least halves the
  /// level count. Nested dissection is never picked by kAuto (it costs
  /// 2.5–9× an RCM); request it explicitly.
  Ordering ordering = Ordering::kAuto;
  /// Pattern driving the level computation. lower(A+Aᵀ) is the default
  /// (paper §VII: "we by default always recommend using the lower(A+Aᵀ)
  /// pattern"): same-level rows then have no coupling in either triangle.
  LevelPattern level_pattern = LevelPattern::kLowerASymmetric;
  /// Whether trailing small or dense levels move to the lower stage (paper
  /// §III-B). The moved rows are factored in one pass over work-balanced
  /// blocks of rows (the paper's Even-Rows split, balanced by the segmented
  /// work scan its Segmented-Rows method uses), then the corner serially.
  /// false keeps every level in the upper stage.
  bool lower_stage = true;
  /// A level is "too small" for the upper stage when it has fewer rows than
  /// this (the sensitivity parameter α of Table III's R-16/24/32 columns).
  /// <= 0 means "derive from thread count" (2·threads, at least 16). α also
  /// sets the width below which P2P sweeps serialize a level: ilu_prepare
  /// tags such levels kSerial (narrow_level_tags) when they hold at least
  /// 10 % of a sweep's rows.
  index_t min_level_rows = 0;
  /// A trailing level is also moved to the lower stage when its mean row
  /// density exceeds this multiple of the matrix mean ("row density" rule).
  double density_factor = 8.0;
  /// Only levels in the trailing fraction of the level order may be moved
  /// ("relative location" rule; Fig. 3's sandwiched small levels stay).
  double relative_location = 0.5;
  /// Rows per point-to-point schedule item (blocked trsv/factorization):
  /// each item issues one merged wait list and one counter publish for the
  /// whole row block, amortizing the spin-wait checks inside a level.
  /// Chunks never cross a level boundary. <= 0 means the built-in default.
  index_t p2p_chunk_rows = 0;
  /// Thread count to plan for; <= 0 means use the OpenMP default.
  int num_threads = 0;
  /// Runtime team override installed by the autotuner (tune/): when > 0 the
  /// solve paths retarget to this team instead of the factor-time plan's
  /// width (still clamped by the OpenMP runtime setting and — under
  /// retarget_oversubscribed — the hardware core count, like any team).
  /// 0, the default, keeps the planned team.
  int tuned_threads = 0;
  /// Spin-wait escalation budget: pause-loop iterations a waiting thread
  /// spends before it starts yielding its CPU (support/spinwait.hpp
  /// Backoff ladder). Plumbed into every schedule this factorization
  /// builds or retargets. <= 0 — the default — derives the budget from
  /// team size vs hardware cores (spin_budget_for).
  int spin_max_pauses = 0;

  // --- batched serving -----------------------------------------------------
  /// Panel width of the batched many-RHS path (ilu/batch.hpp): solve_many
  /// splits its k right-hand sides into column-major panels of at most this
  /// many columns and sweeps each panel in one scheduled pass (every factor
  /// entry loaded once per register block instead of once per RHS). <= 0
  /// means the built-in default (kDefaultBatchRhs). Width never changes
  /// results: batched solves are bitwise equal to k independent solves.
  index_t batch_rhs = 0;

  // --- execution -------------------------------------------------------------
  /// Runtime-team autotune (first slice of the ROADMAP thread-count item):
  /// when a SOLVE would launch the planned team onto fewer hardware cores
  /// than threads, re-plan (retarget) the schedules down to the core count
  /// instead of spinning more threads than cores. A runtime
  /// omp_set_num_threads below the plan always retargets, independent of
  /// this flag. Tests pin false to force planned-width scheduled execution.
  bool retarget_oversubscribed = true;
  /// Statically verify every schedule this factorization builds or
  /// retargets (verify/verify.hpp): partition integrity, level soundness,
  /// happens-before coverage of all row dependencies, deadlock freedom. A
  /// failed proof throws javelin::Error with row-precise diagnostics before
  /// the schedule can execute. Unset — the default — resolves inside the
  /// library (verify_schedules_enabled): on when the LIBRARY was built
  /// without NDEBUG (an O(nnz) assertion), off in a release library, however
  /// the calling program was compiled. Read it only through
  /// verify_schedules_enabled; `if (opts.verify_schedules)` would test
  /// whether it is set, not its value.
  std::optional<bool> verify_schedules;

  // --- fault injection (tests only) ---------------------------------------
  /// When set, consulted after every factor/sweep row; returning false
  /// aborts the enclosing region cooperatively (no throw from inside the
  /// parallel region, bounded spin-wait termination). Leave empty in
  /// production: the empty-hook paths carry no abort polling.
  FaultHook fault_hook;

  // --- observability --------------------------------------------------------
  /// Non-owning spin-wait telemetry sink. When set, the factor/sweep
  /// regions run their instrumented template instantiations (per-thread
  /// wait counters, per-(thread, level) busy/stall attribution, trace
  /// spans when the trace session is enabled) and aggregate into the
  /// sink's per-region ExecStats. Null — the default — keeps every hot
  /// path on the zero-overhead uninstrumented instantiation. The fault
  /// hook takes precedence: a region with both set runs the guarded
  /// (hook) variant uninstrumented. The sink is not thread-safe across
  /// concurrent solves; attach one per stream.
  obs::ExecObs* exec_obs = nullptr;
};

/// The resolved IluOptions::verify_schedules: its value when set, else the
/// library's build default (on without NDEBUG, off with it). Defined in the
/// library, so every caller sees the same default whatever its own NDEBUG.
bool verify_schedules_enabled(const IluOptions& opts);

}  // namespace javelin
