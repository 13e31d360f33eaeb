// Tests of the default per-level regime rule (narrow_level_tags, installed
// by ilu_prepare through tag_narrow_levels):
//
//   * deep suite matrices (TSOPF_RS_b300_c2, fem_filter, in natural order)
//     get default factors
//     whose tags are exactly the rule's verdict — both directions tagged at
//     every team > 1, untagged at T = 1 — verifier-clean, and their
//     ilu_apply, ilu_apply_spmv, ilu_apply_panel and pcg_many results are
//     bitwise equal to the serial reference at T ∈ {1, 2, 4, 8};
//   * a wide-level matrix (laplacian3d) and every kBarrier-backend factor
//     stay untagged;
//   * re-tagging an already tagged schedule with other thresholds starts
//     from the full uniform waits: the result is field-for-field a fresh
//     build tagged once, verifier-clean, and bitwise equal to serial; a
//     stored segment layout that disagrees with the tags is flagged.
#include <string>
#include <vector>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/batch.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/solver/batch.hpp"
#include "javelin/sparse/spmv.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/tune/tune.hpp"
#include "javelin/verify/verify.hpp"
#include "test_util.hpp"

using namespace javelin;
using javelin::test::bitwise_equal;
using javelin::test::random_vector;

namespace {

gen::SuiteOptions small_scale() {
  gen::SuiteOptions so;
  so.scale = 0.02;
  return so;
}

IluOptions team_opts(int threads) {
  IluOptions opts;
  opts.num_threads = threads;
  // The matrices are deep in natural order; the default preordering would
  // give them wide levels and nothing to tag.
  opts.ordering = Ordering::kNatural;
  opts.retarget_oversubscribed = false;
  return opts;
}

std::vector<value_t> serial_apply(const Factorization& f,
                                  std::span<const value_t> r) {
  std::vector<value_t> z(r.size());
  SolveWorkspace ws;
  ilu_apply_serial(f, r, z, ws);
  return z;
}

std::span<value_t> column(std::vector<value_t>& p, index_t n, index_t j) {
  return {p.data() + static_cast<std::size_t>(j * n),
          static_cast<std::size_t>(n)};
}

void check_verified(const char* name, int t, const Factorization& f) {
  const verify::VerifyReport fr =
      verify::verify_schedule(f.fwd, lower_triangular_deps(f.lu));
  const verify::VerifyReport br =
      verify::verify_schedule(f.bwd, upper_triangular_deps(f.lu));
  CHECK_MSG(fr.ok(), "%s t=%d fwd: %s", name, t, fr.summary().c_str());
  CHECK_MSG(br.ok(), "%s t=%d bwd: %s", name, t, br.summary().c_str());
}

/// The default factor of a deep matrix: tagged by the rule, race-free, and
/// bitwise equal to serial on every apply path.
void check_deep_default(const std::string& name, int t) {
  const char* nm = name.c_str();
  const CsrMatrix a = gen::make_suite_matrix(name, small_scale()).matrix;
  ThreadCountGuard guard(t);
  const Factorization f = ilu_factor(a, team_opts(t));

  CHECK_MSG(f.fwd.level_tags ==
                    narrow_level_tags(f.fwd, f.plan.min_level_rows) &&
                f.bwd.level_tags ==
                    narrow_level_tags(f.bwd, f.plan.min_level_rows),
            "%s t=%d tags differ from the rule", nm, t);
  CHECK_MSG((f.fwd.hybrid() && f.bwd.hybrid()) == (t > 1),
            "%s t=%d tagged fwd=%d bwd=%d", nm, t, f.fwd.hybrid(),
            f.bwd.hybrid());
  check_verified(nm, t, f);

  const index_t n = f.n();
  const std::size_t un = static_cast<std::size_t>(n);
  const auto r = random_vector(n, 0x7A65);
  const auto z_ref = serial_apply(f, r);
  SolveWorkspace ws;
  std::vector<value_t> z(un);
  ilu_apply(f, r, z, ws);
  CHECK_MSG(bitwise_equal(z, z_ref), "%s t=%d ilu_apply", nm, t);

  const FusedApplySpmv fs = build_fused_apply_spmv(f, a);
  std::vector<value_t> z_f(un), t_f(un), t_ref(un);
  ilu_apply_spmv(f, a, fs, r, z_f, t_f, ws);
  spmv(a, RowPartition::build(a), z_ref, t_ref);
  CHECK_MSG(bitwise_equal(z_f, z_ref), "%s t=%d fused z", nm, t);
  CHECK_MSG(bitwise_equal(t_f, t_ref), "%s t=%d fused t", nm, t);

  const index_t k = 3;
  std::vector<value_t> rp(un * static_cast<std::size_t>(k));
  std::vector<value_t> zp(rp.size());
  for (index_t j = 0; j < k; ++j) {
    const auto col = random_vector(n, 0x7A65 + static_cast<std::uint64_t>(j));
    std::copy(col.begin(), col.end(), column(rp, n, j).begin());
  }
  ilu_apply_panel(f, rp, zp, k, ws);
  for (index_t j = 0; j < k; ++j) {
    CHECK_MSG(bitwise_equal(column(zp, n, j), serial_apply(f, column(rp, n, j))),
              "%s t=%d panel col %d", nm, t, static_cast<int>(j));
  }

  // pcg_many over the tagged panel sweeps vs scalar PCG preconditioned by
  // the serial sweep: same trajectories, column by column.
  SolverOptions so;
  so.max_iterations = 25;
  so.tolerance = 1e-10;
  SolveWorkspace ws_ser;
  const PrecondFn serial_m = [&](std::span<const value_t> in,
                                 std::span<value_t> out) {
    ilu_apply_serial(f, in, out, ws_ser);
  };
  std::vector<value_t> x_ref(rp.size(), 0.0), x(rp.size(), 0.0);
  WorkspacePool pool;
  const std::vector<SolverResult> res =
      pcg_many(a, rp, x, k, ilu_panel_preconditioner(f, pool), so);
  for (index_t j = 0; j < k; ++j) {
    const SolverResult sj =
        pcg(a, column(rp, n, j), column(x_ref, n, j), serial_m, so);
    const SolverResult& mj = res[static_cast<std::size_t>(j)];
    CHECK_MSG(mj.iterations == sj.iterations &&
                  mj.relative_residual == sj.relative_residual,
              "%s t=%d pcg_many col %d: it %d/%d res %.17g/%.17g", nm, t,
              static_cast<int>(j), mj.iterations, sj.iterations,
              mj.relative_residual, sj.relative_residual);
  }
  CHECK_MSG(bitwise_equal(x, x_ref), "%s t=%d pcg_many solutions", nm, t);
}

/// Wide levels and the barrier backend keep the uniform schedules.
void check_untagged() {
  const CsrMatrix grid = gen::laplacian3d(16, 16, 16, 7);
  const CsrMatrix deep =
      gen::make_suite_matrix("TSOPF_RS_b300_c2", small_scale()).matrix;
  for (const int t : {2, 4, 8}) {
    ThreadCountGuard guard(t);
    const Factorization fg = ilu_prepare(grid, team_opts(t));
    CHECK_MSG(!fg.fwd.hybrid() && !fg.bwd.hybrid(),
              "laplacian3d t=%d tagged", t);
    IluOptions bopts = team_opts(t);
    bopts.exec_backend = ExecBackend::kBarrier;
    for (const CsrMatrix* m : {&grid, &deep}) {
      const Factorization fb = ilu_prepare(*m, bopts);
      CHECK_MSG(!fb.fwd.hybrid() && !fb.bwd.hybrid(),
                "barrier backend t=%d n=%d tagged", t,
                static_cast<int>(m->rows()));
    }
  }
}

/// Re-tag a tagged schedule: the waits must be re-derived from the uniform
/// lists, not pruned again from the already pruned ones.
void check_retag(const std::string& name, int t) {
  const char* nm = name.c_str();
  const CsrMatrix a = gen::make_suite_matrix(name, small_scale()).matrix;
  ThreadCountGuard guard(t);
  Factorization f = ilu_factor(a, team_opts(t));
  CHECK_MSG(f.fwd.hybrid() && f.bwd.hybrid(), "%s t=%d default untagged", nm,
            t);
  const DepsFn low = lower_triangular_deps(f.lu);
  const DepsFn up = upper_triangular_deps(f.lu);
  const index_t chunk = f.fwd.chunk_rows;
  const auto r = random_vector(f.n(), 0x2E7A);
  const auto z_ref = serial_apply(f, r);

  struct Thresholds {
    index_t serial_below, barrier_below;
  };
  for (const Thresholds th : {Thresholds{2, 8}, Thresholds{4, 64},
                              Thresholds{0, 0}, Thresholds{64, 64}}) {
    const auto tf = tune::derive_hybrid_tags(f.fwd, th.serial_below,
                                             th.barrier_below);
    const auto tb = tune::derive_hybrid_tags(f.bwd, th.serial_below,
                                             th.barrier_below);
    apply_level_tags(f.fwd, low, tf);
    apply_level_tags(f.bwd, up, tb);
    f.numeric_cache = ScheduleCache{};

    // Field-for-field what tagging a fresh uniform build once gives.
    ExecSchedule ff = build_upper_forward_schedule(
        f.lu, f.plan.upper_level_ptr, ExecBackend::kP2P, t, chunk);
    ExecSchedule fb = build_backward_schedule(f.lu, ExecBackend::kP2P, t, chunk);
    apply_level_tags(ff, low, tf);
    apply_level_tags(fb, up, tb);
    CHECK_MSG(f.fwd.level_tags == ff.level_tags &&
                  f.fwd.seg_items == ff.seg_items &&
                  f.fwd.wait_ptr == ff.wait_ptr &&
                  f.fwd.wait_thread == ff.wait_thread &&
                  f.fwd.wait_count == ff.wait_count &&
                  f.fwd.deps_kept == ff.deps_kept,
              "%s t=%d retag(%d,%d) fwd differs from a fresh tagging", nm, t,
              static_cast<int>(th.serial_below),
              static_cast<int>(th.barrier_below));
    CHECK_MSG(f.bwd.level_tags == fb.level_tags &&
                  f.bwd.seg_items == fb.seg_items &&
                  f.bwd.wait_ptr == fb.wait_ptr &&
                  f.bwd.wait_thread == fb.wait_thread &&
                  f.bwd.wait_count == fb.wait_count &&
                  f.bwd.deps_kept == fb.deps_kept,
              "%s t=%d retag(%d,%d) bwd differs from a fresh tagging", nm, t,
              static_cast<int>(th.serial_below),
              static_cast<int>(th.barrier_below));
    check_verified(nm, t, f);

    SolveWorkspace ws;
    std::vector<value_t> z(r.size());
    ilu_apply(f, r, z, ws);
    CHECK_MSG(bitwise_equal(z, z_ref), "%s t=%d retag(%d,%d) apply", nm, t,
              static_cast<int>(th.serial_below),
              static_cast<int>(th.barrier_below));
  }

  // The executor walks the stored segment layout: a stale one is flagged.
  apply_level_tags(f.bwd, up, narrow_level_tags(f.bwd, f.plan.min_level_rows));
  ExecSchedule stale = f.bwd;
  CHECK_MSG(!stale.seg_items.empty(), "%s t=%d no segment layout", nm, t);
  if (!stale.seg_items.empty()) {
    stale.seg_items.back() += 1;
    bool flagged = false;
    for (const verify::ScheduleDiagnostic& d :
         verify::verify_schedule(stale, up).diagnostics) {
      flagged = flagged || d.kind == verify::DiagKind::kRegimeTag;
    }
    CHECK_MSG(flagged, "%s t=%d stale segment layout not flagged", nm, t);
  }
}

}  // namespace

int main() {
  for (const char* name : {"TSOPF_RS_b300_c2", "fem_filter"}) {
    for (const int t : {1, 2, 4, 8}) check_deep_default(name, t);
  }
  check_untagged();
  check_retag("TSOPF_RS_b300_c2", 4);
  check_retag("fem_filter", 8);
  return javelin::test::finish("test_regime");
}
