// Factor-time autotuner: measure a small grid of execution policies —
// backend (P2P / barrier / serial), team width, blocking granule, and the
// per-level hybrid regime mix — on the REAL solve path, then pin the winner
// into the factorization so every later sweep (plain, fused, panel, batched)
// dispatches it automatically.
//
// Everything a candidate changes is a bitwise-neutral transformation of the
// same (level, thread, row) assignment: backends and teams are
// interchangeable by the standing exec/ contract, regime tags only alter
// synchronization, and the blocking granule only groups rows into items.
// The tuner therefore never changes results — only the time to produce
// them — and a pinned policy replays deterministically.
//
// Two measurement modes:
//   * wall-clock (default): each candidate is applied to the factor through
//     the cheap retarget/tag machinery, timed over `reps` real ilu_apply
//     sweeps (min of reps), and rolled back before the next candidate;
//   * injected cost model (TuneOptions::cost_model): no clocks, no state
//     mutation during scoring — the model ranks candidates from the
//     schedule-shape context alone. This is what makes tuning decisions
//     reproducible in tests and `bench --verify` (deterministic-policy
//     mode); deterministic_cost_model() is the shared default model.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "javelin/ilu/factorization.hpp"
#include "javelin/obs/metrics.hpp"

namespace javelin::tune {

/// One point of the candidate grid. `chunk_rows == 0` keeps the granule the
/// factor was built with; `hybrid` installs the default per-level regimes
/// (tag_narrow_levels: levels narrower than the plan's α serialize) on top
/// of the P2P backend, while a plain P2P candidate runs uniform sweeps.
struct TuneCandidate {
  ExecBackend backend = ExecBackend::kP2P;
  bool hybrid = false;
  int threads = 1;
  index_t chunk_rows = 0;

  /// Stable display/bench key, e.g. "serial", "p2p/t4", "barrier/t2/c16",
  /// "hybrid/t8".
  std::string name() const;
};

/// What a candidate cost: wall-clock seconds (min over reps) or the cost
/// model's dimensionless score, depending on the mode.
struct TuneMeasurement {
  TuneCandidate cand;
  double seconds = 0.0;
};

/// Schedule-shape facts the cost model may consult (everything is derived
/// from the factor — no clocks, no randomness).
struct TuneContext {
  index_t n = 0;
  index_t nnz = 0;
  int plan_threads = 1;
  index_t fwd_levels = 0;
  index_t bwd_levels = 0;
  double fwd_mean_rows_per_level = 0.0;
  double bwd_mean_rows_per_level = 0.0;
  /// Fraction of rows in levels narrower than the plan's α.
  double fwd_small_row_frac = 0.0;
  double bwd_small_row_frac = 0.0;
  index_t small_level_rows = 0;  ///< the threshold the fractions used (α)
};

/// Candidate scorer for deterministic-policy mode: lower is better. Must be
/// a pure function of its arguments.
using CostModelFn =
    std::function<double(const TuneContext&, const TuneCandidate&)>;

struct TuneOptions {
  /// Timed sweeps per candidate in wall-clock mode (min is kept); one
  /// untimed warm-up sweep precedes them.
  int reps = 3;
  /// Widest team to consider; 0 caps at the factor-time plan's width.
  int max_threads = 0;
  /// Extra blocking granules to try (0 entries = keep the factor's). Each
  /// granule rebuilds the schedules from the retained level structure.
  std::vector<index_t> chunk_candidates;
  /// When set, scoring runs through this model instead of the wall clock —
  /// the deterministic-policy mode tests and `bench --verify` rely on.
  CostModelFn cost_model;
};

struct TuneReport {
  std::vector<TuneMeasurement> measured;  ///< grid in evaluation order
  TuneCandidate chosen;
  double chosen_seconds = 0.0;  ///< winner's score/seconds
  double serial_seconds = 0.0;  ///< the serial candidate's score/seconds
  bool applied = false;         ///< winner pinned into the factorization
  bool hybrid_applied = false;  ///< winner carries per-level regime tags

  /// Export the decision as monotone counters ("tune.candidates",
  /// "tune.chosen_threads", "tune.chosen_hybrid", "tune.chosen_ns",
  /// "tune.serial_ns", ...) for the bench's metrics block.
  void export_metrics(obs::MetricsRegistry& reg) const;
};

/// Three-regime tags from two level-size thresholds: levels narrower than
/// `serial_below` rows serialize (one thread, zero sync), levels below
/// `barrier_below` take the one-barrier protocol, wide levels stay on P2P
/// waits. Returns LevelRegime bytes, one per level of `s`. Neither the
/// default nor the tuner uses it (both use narrow_level_tags); it builds the
/// mixed kBarrier/kSerial/kP2P schedules that exercise every regime of the
/// hybrid executor.
std::vector<std::uint8_t> derive_hybrid_tags(const ExecSchedule& s,
                                             index_t serial_below,
                                             index_t barrier_below);

/// Schedule-shape context of `f` (small levels: narrower than the plan's α).
TuneContext make_context(const Factorization& f);

/// The shared deterministic cost model: fixed closed-form arithmetic on the
/// context — work spread over the team plus a per-level synchronization
/// toll (barrier > P2P), which hybrid tags discount on the small-level row
/// fraction of every direction the default rule tags, and a mild wide-team
/// penalty. Pure and clock-free, so the chosen policy is a function of the
/// schedule shape alone.
CostModelFn deterministic_cost_model();

/// Measure the candidate grid on `f` and pin the winner: the chosen
/// backend/tags are installed on f.fwd/f.bwd and the chosen team width in
/// f.opts.tuned_threads (runtime_team consumes it; runtime clamps still
/// apply). The factor's results are unchanged for every candidate — only
/// synchronization and blocking differ. Exception-safe: on throw the
/// factor is restored to its pre-tune policy.
TuneReport autotune(Factorization& f, const TuneOptions& topt = {});

}  // namespace javelin::tune
