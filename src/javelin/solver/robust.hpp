// Breakdown-safe solve pipeline: walk a preconditioner ladder — ILU(k),
// Manteuffel-shifted ILU with geometrically escalating α, damped Jacobi,
// identity — restarting the Krylov solve at each rung, and return a
// structured SolveReport (per-attempt trail, failure cause, final shift)
// instead of throwing. Factorization breakdowns surface as FactorStatus via
// the cooperative-abort protocol of exec/run.hpp, so no retry ever crosses
// an exception out of a parallel region; each shifted retry reuses the
// one-time symbolic analysis of ilu_prepare and costs only an O(nnz)
// scatter plus the numeric sweep.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/solver/krylov.hpp"

namespace javelin {

/// Rung of the preconditioner fallback ladder, strongest first.
enum class PrecondLevel : std::uint8_t {
  kIlu,         ///< ILU(k) on the unmodified matrix
  kShiftedIlu,  ///< ILU(k) of A + αI (Manteuffel diagonal shift)
  kJacobi,      ///< damped Jacobi z = ω D⁻¹ r
  kIdentity,    ///< unpreconditioned (z = r)
};

const char* to_string(PrecondLevel level) noexcept;

/// Krylov driver selection. kAuto picks PCG for (exactly) symmetric
/// matrices and GMRES otherwise; an indefinite "symmetric" system that
/// breaks PCG down is retried with GMRES on the same ladder rung.
enum class KrylovMethod : std::uint8_t { kAuto, kPcg, kGmres };

/// Why the pipeline's final answer is not a converged solve (kNone when it
/// is). Mirrors SolverStop plus the factorization-side breakdown.
enum class FailureCause : std::uint8_t {
  kNone,             ///< converged
  kFactorBreakdown,  ///< no ladder rung produced a usable factorization
  kKrylovBreakdown,  ///< exact Krylov breakdown ((r,z) or (p,Ap) hit zero)
  kNonFinite,        ///< NaN/Inf in the iteration
  kStagnation,       ///< residual plateaued within the stagnation window
  kMaxIterations,    ///< iteration budget exhausted
};

const char* to_string(FailureCause cause) noexcept;

/// One ladder rung as it actually ran.
struct AttemptReport {
  PrecondLevel level = PrecondLevel::kIlu;
  /// Absolute Manteuffel shift α applied to the diagonal (0 off the shifted
  /// rungs). Escalates geometrically: initial_shift · growthᵏ · max|a_ii|.
  value_t shift = 0;
  /// Whether the numeric factorization succeeded (always true on the
  /// Jacobi/identity rungs, which factor nothing).
  bool factored = true;
  /// Permuted index of the first failed pivot when !factored.
  index_t factor_row = kInvalidIndex;
  /// PCG broke down on this rung and GMRES re-ran it from the same guess.
  bool used_gmres = false;
  /// Krylov outcome of the rung (default-initialized when !factored).
  SolverResult result;
};

struct RobustOptions {
  IluOptions ilu;
  SolverOptions solver;
  KrylovMethod method = KrylovMethod::kAuto;
  /// First shift, relative to max|a_ii| (the absolute α of shifted attempt
  /// k ≥ 0 is initial_shift · shift_growth^k · max|a_ii|).
  value_t initial_shift = 1e-3;
  value_t shift_growth = 10.0;
  /// Shifted-ILU attempts after the unshifted one.
  int max_shift_attempts = 4;
  /// Damping ω of the Jacobi rung.
  value_t jacobi_damping = 0.8;
  bool allow_jacobi = true;
  bool allow_identity = true;
  /// Stagnation window handed to the Krylov drivers when solver.
  /// stagnation_window is 0 — the robust pipeline always wants plateaus
  /// reported (they trigger the next rung) rather than a silently burned
  /// iteration budget. Set solver.stagnation_window to override.
  int default_stagnation_window = 50;
};

/// What a robust solve did, end to end. Returned instead of thrown: the
/// only exceptions out of RobustSolver::solve are structural
/// (JAVELIN_CHECK) and test-only fault-injection aborts.
struct SolveReport {
  bool converged = false;
  double relative_residual = 0.0;  ///< true residual of the returned x
  int total_iterations = 0;        ///< summed over every attempt
  FailureCause cause = FailureCause::kNone;
  value_t shift_used = 0;              ///< shift of the rung that produced x
  PrecondLevel level_used = PrecondLevel::kIlu;
  std::vector<AttemptReport> attempts;

  /// One-line human-readable attempt trail (for logs and test diagnostics).
  std::string summary() const;
};

/// Factor-once / solve-many packaging of the breakdown-safe pipeline: the
/// symbolic analysis, planning and schedules are built once (ilu_prepare);
/// every solve() walks the ladder with O(nnz) numeric retries. Not safe for
/// concurrent solve() calls on one instance.
class RobustSolver {
 public:
  /// `a` must be square and outlive the solver. A STRUCTURALLY
  /// unfactorable matrix (e.g. missing diagonal entry) skips the ILU rungs
  /// entirely instead of throwing — the ladder then starts at Jacobi.
  explicit RobustSolver(const CsrMatrix& a, RobustOptions opts = {});

  /// Solve A x = b, walking the ladder until a rung converges. `x` holds
  /// the initial guess on entry (every rung restarts from it); on exit it
  /// holds the converged solution, or the best-residual iterate of any
  /// rung when nothing converged.
  SolveReport solve(std::span<const value_t> b, std::span<value_t> x);

  /// Exact symmetry (drives the kAuto method choice).
  bool symmetric() const noexcept { return symmetric_; }
  /// max|a_ii| — the shift unit (1 when the stored diagonal is all zero).
  value_t diagonal_scale() const noexcept { return diag_scale_; }
  /// Null when the matrix is structurally unfactorable. The mutable form
  /// lets a caller re-tag the factor's sweeps (tag_all_levels) between
  /// solves; every rung reuses its schedules.
  const Factorization* factorization() const noexcept { return factor_.get(); }
  Factorization* factorization() noexcept { return factor_.get(); }

 private:
  const CsrMatrix* a_;
  RobustOptions opts_;
  bool symmetric_ = false;
  value_t diag_scale_ = 1;
  std::unique_ptr<Factorization> factor_;
  SolveWorkspace ws_;
};

/// One-shot convenience wrapper around RobustSolver.
SolveReport solve_robust(const CsrMatrix& a, std::span<const value_t> b,
                         std::span<value_t> x, const RobustOptions& opts = {});

}  // namespace javelin
