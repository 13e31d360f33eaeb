// Tests of the factor-time autotuner (tune/) and hybrid per-level-regime
// execution:
//
//   * deterministic-policy mode: with the injected cost model the tuning
//     decision is a pure function of the schedule shape — the same factor
//     always picks the same candidate, re-tuning is idempotent, and the
//     chosen policy never beats-by-losing (chosen <= serial by argmin);
//   * every policy the tuner can pin is bitwise-neutral: the tuned factor's
//     plain, fused and panel applies stay bitwise equal to the serial
//     reference;
//   * hybrid schedules (forced regime mixes) are bitwise-identical to
//     serial across T in {1, 2, 4, 8} on the plain, fused and panel paths;
//   * tag_all_levels after a hybrid pin — all-barrier (CSR-LS), then plain
//     P2P — stays race-free (the pruned waits are rebuilt);
//   * a rigged cost model pins exactly the candidate it names, the barrier
//     candidate as all-kBarrier tags;
//   * TuneReport::export_metrics emits the decision counters.
#include <string>
#include <vector>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/batch.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/sparse/spmv.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/tune/tune.hpp"
#include "test_util.hpp"

using namespace javelin;
using javelin::test::all_barrier;
using javelin::test::bitwise_equal;
using javelin::test::random_vector;

namespace {

std::vector<value_t> serial_apply(const Factorization& f,
                                  std::span<const value_t> r) {
  std::vector<value_t> z(r.size());
  SolveWorkspace ws;
  ilu_apply_serial(f, r, z, ws);
  return z;
}

/// Plain/fused/panel applies of `f` (whatever policy it carries) vs the
/// serial reference — the bitwise-neutrality bar every pinned policy meets.
void check_policy_parity(const char* name, const char* what,
                         const Factorization& f, const CsrMatrix& a) {
  const index_t n = f.n();
  const std::size_t un = static_cast<std::size_t>(n);
  const auto r = random_vector(n, 0xAB12);
  const auto z_ref = serial_apply(f, r);

  SolveWorkspace ws;
  std::vector<value_t> z(un);
  ilu_apply(f, r, z, ws);
  CHECK_MSG(bitwise_equal(z, z_ref), "%s %s plain apply", name, what);

  const FusedApplySpmv fs = build_fused_apply_spmv(f, a);
  std::vector<value_t> z_f(un), t_f(un), t_u(un);
  ilu_apply_spmv(f, a, fs, r, z_f, t_f, ws);
  CHECK_MSG(bitwise_equal(z_f, z_ref), "%s %s fused z", name, what);
  const RowPartition part = RowPartition::build(a);
  spmv(a, part, z_ref, t_u);
  CHECK_MSG(bitwise_equal(t_f, t_u), "%s %s fused t", name, what);

  const index_t k = 3;
  std::vector<value_t> rp(un * static_cast<std::size_t>(k));
  std::vector<value_t> zp(un * static_cast<std::size_t>(k));
  for (index_t j = 0; j < k; ++j) {
    const auto col = random_vector(n, 0xAB12 + static_cast<std::uint64_t>(j));
    std::copy(col.begin(), col.end(),
              rp.begin() + static_cast<std::size_t>(j) * un);
  }
  ilu_apply_panel(f, rp, zp, k, ws);
  for (index_t j = 0; j < k; ++j) {
    const std::span<const value_t> rj(rp.data() + static_cast<std::size_t>(j) * un, un);
    const std::span<const value_t> zj(zp.data() + static_cast<std::size_t>(j) * un, un);
    const auto ref = serial_apply(f, rj);
    CHECK_MSG(bitwise_equal(zj, ref), "%s %s panel col %d", name, what,
              static_cast<int>(j));
  }
}

/// Force a hybrid regime mix on `f` (serial below the team width, barrier
/// below 4x) and reset the derived caches. The default factor may already
/// carry narrow-level tags, so this re-tags.
bool force_hybrid(Factorization& f, int threads) {
  const auto tf = tune::derive_hybrid_tags(
      f.fwd, static_cast<index_t>(threads), static_cast<index_t>(4 * threads));
  const auto tb = tune::derive_hybrid_tags(
      f.bwd, static_cast<index_t>(threads), static_cast<index_t>(4 * threads));
  apply_level_tags(f.fwd, lower_triangular_deps(f.lu), tf);
  apply_level_tags(f.bwd, upper_triangular_deps(f.lu), tb);
  f.numeric_cache = ScheduleCache{};
  return f.fwd.hybrid() || f.bwd.hybrid();
}

/// Hybrid schedules stay bitwise-identical to serial across teams on every
/// apply path.
void check_hybrid_parity(const char* name, const CsrMatrix& a) {
  bool any_hybrid = false;
  for (const int threads : {1, 2, 4, 8}) {
    ThreadCountGuard guard(threads);
    IluOptions opts;
    opts.num_threads = threads;
    opts.retarget_oversubscribed = false;
    Factorization f = ilu_factor(a, opts);
    any_hybrid = force_hybrid(f, threads) || any_hybrid;
    check_policy_parity(name, "hybrid", f, a);

    // Re-tagging uniformly afterwards must rebuild the pruned waits (a racy
    // schedule here would show up as a parity break or a hang).
    tag_all_levels(f, LevelRegime::kBarrier);
    CHECK_MSG(all_barrier(f.fwd) && all_barrier(f.bwd),
              "%s t=%d mixed tags survive tag_all_levels", name, threads);
    check_policy_parity(name, "post-hybrid barrier", f, a);
    tag_all_levels(f, LevelRegime::kP2P);
    CHECK_MSG(!f.fwd.hybrid() && !f.bwd.hybrid(),
              "%s t=%d tags survive tag_all_levels(kP2P)", name, threads);
    check_policy_parity(name, "post-barrier p2p", f, a);
  }
  CHECK_MSG(any_hybrid, "%s never produced a hybrid schedule", name);
}

void check_deterministic_tuner(const char* name, const CsrMatrix& a) {
  ThreadCountGuard guard(4);
  IluOptions opts;
  opts.num_threads = 4;
  opts.retarget_oversubscribed = false;
  Factorization f = ilu_factor(a, opts);

  tune::TuneOptions topt;
  topt.cost_model = tune::deterministic_cost_model();
  topt.max_threads = 8;
  topt.chunk_candidates = {16, 64};
  const tune::TuneReport rep1 = tune::autotune(f, topt);
  CHECK(rep1.applied);
  CHECK(!rep1.measured.empty());
  CHECK_MSG(rep1.measured.front().cand.threads == 1,
            "%s grid does not lead with serial", name);
  CHECK_MSG(rep1.chosen_seconds <= rep1.serial_seconds,
            "%s chosen %.3g worse than serial %.3g", name, rep1.chosen_seconds,
            rep1.serial_seconds);

  // Pure function of the schedule shape: a fresh identical factor picks the
  // same candidate...
  Factorization f2 = ilu_factor(a, opts);
  const tune::TuneReport rep2 = tune::autotune(f2, topt);
  CHECK_MSG(rep1.chosen.name() == rep2.chosen.name(), "%s chose %s then %s",
            name, rep1.chosen.name().c_str(), rep2.chosen.name().c_str());
  // ...and re-tuning the already-tuned factor is idempotent.
  const tune::TuneReport rep3 = tune::autotune(f, topt);
  CHECK_MSG(rep3.chosen.name() == rep1.chosen.name(), "%s re-tune %s vs %s",
            name, rep3.chosen.name().c_str(), rep1.chosen.name().c_str());

  // The pinned winner changes nothing numerically.
  check_policy_parity(name, "tuned", f, a);

  // Decision counters for the bench's metrics block.
  obs::MetricsRegistry reg;
  rep1.export_metrics(reg);
  CHECK(reg.counters().at("tune.candidates") == rep1.measured.size());
  CHECK(reg.counters().at("tune.chosen_threads") ==
        static_cast<std::uint64_t>(rep1.chosen.threads));
  CHECK(reg.counters().count("tune.chosen_ns") == 1);
  CHECK(reg.counters().count("tune.serial_ns") == 1);
}

/// A rigged cost model must be obeyed verbatim — this is how tests and
/// bench --verify pin an exact policy.
void check_forced_winner(const char* name, const CsrMatrix& a,
                         tune::TuneSync sync, const char* want) {
  ThreadCountGuard guard(4);
  IluOptions opts;
  opts.num_threads = 4;
  opts.retarget_oversubscribed = false;
  Factorization f = ilu_factor(a, opts);

  tune::TuneOptions topt;
  topt.cost_model = [sync](const tune::TuneContext&,
                           const tune::TuneCandidate& c) {
    return (c.sync == sync && c.threads == 4 && c.chunk_rows == 0) ? 1.0
                                                                    : 100.0;
  };
  const tune::TuneReport rep = tune::autotune(f, topt);
  CHECK_MSG(rep.chosen.name() == want, "%s chose %s, want %s", name,
            rep.chosen.name().c_str(), want);
  CHECK(f.opts.tuned_threads == 4);
  if (sync == tune::TuneSync::kHybrid) {
    CHECK_MSG(rep.hybrid_applied, "%s hybrid tags did not survive", name);
  } else if (sync == tune::TuneSync::kBarrier) {
    CHECK_MSG(!rep.hybrid_applied && all_barrier(f.fwd) && all_barrier(f.bwd),
              "%s barrier winner is not all-kBarrier tags", name);
  }
  check_policy_parity(name, want, f, a);
}

/// Wall-clock mode smoke: times real sweeps, applies the argmin, results
/// unchanged. (Timings are noise on a loaded runner; only the invariants
/// are asserted.)
void check_wallclock_smoke(const char* name, const CsrMatrix& a) {
  ThreadCountGuard guard(2);
  IluOptions opts;
  opts.num_threads = 2;
  opts.retarget_oversubscribed = false;
  Factorization f = ilu_factor(a, opts);

  tune::TuneOptions topt;
  topt.reps = 1;
  const tune::TuneReport rep = tune::autotune(f, topt);
  CHECK(rep.applied);
  CHECK(rep.serial_seconds > 0.0);
  CHECK(rep.chosen_seconds <= rep.serial_seconds);
  check_policy_parity(name, "wallclock-tuned", f, a);
}

}  // namespace

int main() {
  const CsrMatrix grid = gen::laplacian2d(20, 20, 5);
  const CsrMatrix chain = gen::long_chain(1200, 10, 4, 3);
  const CsrMatrix power = gen::power_system(600, 15, 40, 13);

  check_hybrid_parity("grid", grid);
  check_hybrid_parity("chain", chain);
  check_hybrid_parity("power", power);

  check_deterministic_tuner("grid", grid);
  check_deterministic_tuner("chain", chain);

  check_forced_winner("chain", chain, tune::TuneSync::kHybrid, "hybrid/t4");
  check_forced_winner("chain", chain, tune::TuneSync::kBarrier, "barrier/t4");
  check_wallclock_smoke("grid", grid);

  return javelin::test::finish("test_tune");
}
