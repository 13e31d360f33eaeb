// Runtime schedule retargeting: when the team a sweep can actually use
// differs from the factor-time plan — the user dialed omp_set_num_threads
// down after factoring, or the planned team would oversubscribe the
// hardware — the solve paths re-plan the schedules for the real team
// instead of degrading to a serial sweep. This is the first concrete slice
// of the ROADMAP thread-count-autotuning item: the plan's permutation and
// level structure are reused untouched, only the (level, thread) slicing
// and the sparsified waits are rebuilt, bitwise-identical to a fresh build
// at the new team (test_exec).
#include <algorithm>

#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/support/spinwait.hpp"
#include "javelin/verify/verify.hpp"

namespace javelin {

ScheduleCache::ScheduleCache() = default;
ScheduleCache::ScheduleCache(ScheduleCache&&) noexcept = default;
ScheduleCache& ScheduleCache::operator=(ScheduleCache&&) noexcept = default;
ScheduleCache::~ScheduleCache() = default;

// Retargeted schedules are derived scratch: a copied factor/workspace starts
// with an empty cache and rebuilds on first mismatch.
ScheduleCache::ScheduleCache(const ScheduleCache&) : ScheduleCache() {}
ScheduleCache& ScheduleCache::operator=(const ScheduleCache&) {
  threads = 0;
  fwd = ExecSchedule{};
  bwd = ExecSchedule{};
  fused.reset();
  fused_matrix = nullptr;
  fused_cols = nullptr;
  fused_nnz = 0;
  return *this;
}

int runtime_team(const Factorization& f) {
  const int planned =
      f.opts.tuned_threads > 0 ? f.opts.tuned_threads : f.plan.threads;
  int t = std::min(planned, max_threads());
  if (f.opts.retarget_oversubscribed) {
    const int hw = hardware_cores();
    if (hw > 0) t = std::min(t, hw);
  }
  return std::max(1, t);
}

namespace {

void ensure_cache(const Factorization& f, ScheduleCache& cache, int team) {
  // Rebuild on a team change AND on any policy flip — regime tags, spin
  // budget — the autotuner (or tag_all_levels) may apply between sweeps
  // that share this cache.
  if (cache.threads == team && cache.fwd.level_tags == f.fwd.level_tags &&
      cache.bwd.level_tags == f.bwd.level_tags &&
      cache.fwd.spin_budget == f.fwd.spin_budget &&
      cache.bwd.spin_budget == f.bwd.spin_budget) {
    return;
  }
  // Both directions move together: a sweep pair (forward then backward)
  // must agree on the team, and the fused companion hangs off bwd.
  cache.fwd = retarget(f.fwd, lower_triangular_deps(f.lu), team);
  cache.bwd = retarget(f.bwd, upper_triangular_deps(f.lu), team);
  if (verify_schedules_enabled(f.opts)) {
    verify::verify_schedule_or_throw(cache.fwd, lower_triangular_deps(f.lu),
                                     "fwd retarget");
    verify::verify_schedule_or_throw(cache.bwd, upper_triangular_deps(f.lu),
                                     "bwd retarget");
  }
  cache.fused.reset();
  cache.fused_matrix = nullptr;
  cache.fused_cols = nullptr;
  cache.fused_nnz = 0;
  cache.threads = team;
}

}  // namespace

const ExecSchedule& runtime_fwd(const Factorization& f, ScheduleCache& cache) {
  const int team = runtime_team(f);
  if (team == f.fwd.threads) return f.fwd;
  ensure_cache(f, cache, team);
  return cache.fwd;
}

const ExecSchedule& runtime_bwd(const Factorization& f, ScheduleCache& cache) {
  const int team = runtime_team(f);
  if (team == f.bwd.threads) return f.bwd;
  ensure_cache(f, cache, team);
  return cache.bwd;
}

void tag_all_levels(Factorization& f, LevelRegime regime) {
  const auto tag = [&](ExecSchedule& s, const DepsFn& deps) {
    const std::vector<std::uint8_t> tags(static_cast<std::size_t>(s.num_levels),
                                         static_cast<std::uint8_t>(regime));
    apply_level_tags(s, deps, tags);
  };
  tag(f.fwd, lower_triangular_deps(f.lu));
  tag(f.bwd, upper_triangular_deps(f.lu));
  f.numeric_cache = ScheduleCache{};
}

void tag_narrow_levels(Factorization& f) {
  const auto tag = [&](ExecSchedule& s, const DepsFn& deps) {
    const auto tags = narrow_level_tags(s, f.plan.min_level_rows);
    if (!tags.empty()) apply_level_tags(s, deps, tags);
  };
  tag(f.fwd, lower_triangular_deps(f.lu));
  tag(f.bwd, upper_triangular_deps(f.lu));
  f.numeric_cache = ScheduleCache{};
}

}  // namespace javelin
