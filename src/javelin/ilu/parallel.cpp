// Two-stage parallel numeric factorization (paper §III).
//
// Upper stage: up-looking rows under the point-to-point schedule.
// Lower stage: one row-parallel pass over contiguous, work-balanced blocks
// of the moved rows against the finished upper stage, then the shared
// corner factorization (FACTOR_LU).
// Every path calls the same row kernel, so all execution modes produce
// bitwise-identical factors (asserted by the property tests).
#include <algorithm>
#include <memory>
#include <string>

#include "javelin/exec/run.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/fused.hpp"  // completes FusedApplySpmv for the cache
#include "javelin/ilu/row_kernel.hpp"
#include "javelin/ilu/symbolic.hpp"
#include "javelin/obs/trace.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/support/scan.hpp"
#include "javelin/support/timer.hpp"
#include "javelin/verify/verify.hpp"

namespace javelin {

namespace {

RowKernelParams kernel_params(const IluOptions& o) {
  return RowKernelParams{o.drop_tolerance, o.modified, o.pivot_threshold};
}

/// f's per-thread row workspaces for the plan's team, created on first use.
class WorkspacePool {
 public:
  explicit WorkspacePool(Factorization& f) : ws_(f.numeric_ws.ws) {
    const auto threads = static_cast<std::size_t>(f.plan.threads);
    while (ws_.size() < threads) ws_.push_back(std::make_unique<RowWorkspace>(f.n()));
  }
  RowWorkspace& get(int t) { return *ws_[static_cast<std::size_t>(t)]; }

 private:
  std::vector<std::unique_ptr<RowWorkspace>>& ws_;
};

void throw_pivot(index_t row) {
  throw Error("zero or near-zero pivot at permuted row " + std::to_string(row) +
              " (Javelin does not pivot)");
}

/// Corner factorization (paper: FACTOR_LU): eliminate lower rows against
/// each other, restricted to corner columns [n_upper, row). Serial by
/// default; optionally level-scheduled through the barrier (CSR-LS)
/// execution backend — the corner is small by construction, so per-level
/// barriers beat spin-wait sparsification there. The corner schedule is
/// built for the plan's team; a runtime `team` below it takes the serial
/// corner (bitwise the same factor) rather than launching the plan's team.
/// A bad pivot (or a fault-hook veto) aborts the region cooperatively and is
/// reported as a status; nothing throws from inside the parallel region.
FactorStatus factor_corner(Factorization& f, WorkspacePool& pool, int team) {
  const TwoStagePlan& plan = f.plan;
  const RowKernelParams params = kernel_params(f.opts);
  const FaultHook& hook = f.opts.fault_hook;
  FactorView fv{f.lu.row_ptr(), f.lu.col_idx(), f.lu.values_mut(), f.diag_pos};
  if (!f.opts.parallel_corner || plan.num_lower_rows() < 2 * plan.threads ||
      f.corner.num_levels == 0 || team != f.corner.threads) {
    RowWorkspace& ws = pool.get(0);
    for (index_t r = plan.n_upper; r < plan.n; ++r) {
      mark_row(fv, r, ws);
      eliminate_window(fv, r, plan.n_upper, r, ws, params);
      if (!finish_row(fv, r, params) ||
          (hook && !hook(FaultSite::kFactorRow, r))) {
        return {FactorOutcome::kBadPivot, r};
      }
    }
    return {};
  }
  // Guarded (bool-returning) row function: exec_run drains the barrier
  // level-set cooperatively on the first failing row, and because no thread
  // passes a level whose barrier never completed, the reported row stays in
  // the FIRST failing level instead of a downstream inf/NaN cascade row.
  const auto corner_row = [&](index_t local, int t) -> bool {
    const index_t r = plan.n_upper + local;
    RowWorkspace& ws = pool.get(t);
    mark_row(fv, r, ws);
    eliminate_window(fv, r, plan.n_upper, r, ws, params);
    if (!finish_row(fv, r, params)) return false;
    return !hook || hook(FaultSite::kFactorRow, r);
  };
  ExecStatus st;
  if (f.opts.exec_obs != nullptr && !hook) {
    ProgressCounters progress;
    st = exec_run_obs(f.corner, corner_row, progress, *f.opts.exec_obs,
                      obs::Region::kCorner);
  } else {
    st = exec_run(f.corner, corner_row);
  }
  if (!st.ok()) {
    return {FactorOutcome::kBadPivot, plan.n_upper + st.row};
  }
  return {};
}

/// Lower stage phase one (paper Figs. 6/8 FACTOR_L): every lower row
/// eliminates its upper-stage columns. Rows are independent here (their
/// mutual coupling lives entirely in the corner) and each row's arithmetic
/// runs in CSR order on one thread, so the pass needs no synchronization:
/// each thread factors one contiguous, work-balanced block of rows.
void factor_lower(Factorization& f, WorkspacePool& pool, int team) {
  const TwoStagePlan& plan = f.plan;
  const RowKernelParams params = kernel_params(f.opts);
  FactorView fv{f.lu.row_ptr(), f.lu.col_idx(), f.lu.values_mut(), f.diag_pos};
#pragma omp parallel num_threads(team)
  {
    const int t = thread_id();
    // Cut for the team the runtime granted, which may be below `team`.
    const Range rows = lower_row_block(f, team_size(), t);
    if (rows.size() > 0) {
      const obs::TraceSpan span("factor_lower");
      RowWorkspace& ws = pool.get(t);
      for (index_t r = rows.begin; r < rows.end; ++r) {
        mark_row(fv, r, ws);
        eliminate_window(fv, r, 0, plan.n_upper, ws, params);
      }
    }
  }
}

/// f.lower_work for the permuted factor (see Factorization::lower_work).
std::vector<offset_t> lower_work_prefix(const Factorization& f) {
  const TwoStagePlan& plan = f.plan;
  std::vector<offset_t> work{0};
  work.reserve(static_cast<std::size_t>(plan.num_lower_rows()) + 1);
  for (index_t r = plan.n_upper; r < plan.n; ++r) {
    offset_t w = f.lu.row_nnz(r);
    for (index_t j : f.lu.row_cols(r)) {
      if (j >= plan.n_upper) break;
      w += f.lu.row_end(j) - f.diag_pos[static_cast<std::size_t>(j)] - 1;
    }
    work.push_back(work.back() + w);
  }
  return work;
}

/// ILU(0) setup in one parallel pass over A: f.lu = P (A + missing
/// diagonal) Pᵀ in the plan's order (fill level 0 adds no other entry),
/// f.diag_pos, f.a_scatter and f.symbolic. The same arrays the symbolic
/// copy, permute_symmetric, diagonal_positions and build_scatter_map
/// produce, without the intermediate copy or a second walk over A.
void permute_ilu0(const CsrMatrix& a, Factorization& f) {
  const index_t n = a.rows();
  const std::vector<index_t>& perm = f.plan.perm;
  const std::vector<index_t> inv = invert_permutation(perm);
  std::vector<index_t> rp(static_cast<std::size_t>(n) + 1, 0);
  index_t added = 0;
#pragma omp parallel for schedule(static) reduction(+ : added)
  for (index_t r = 0; r < n; ++r) {
    const index_t old_r = perm[static_cast<std::size_t>(r)];
    const index_t missing = a.find(old_r, old_r) == kInvalidIndex ? 1 : 0;
    rp[static_cast<std::size_t>(r) + 1] = a.row_nnz(old_r) + missing;
    added += missing;
  }
  inclusive_scan_inplace(std::span<index_t>(rp).subspan(1));
  const auto nnz = static_cast<std::size_t>(rp.back());
  std::vector<index_t> ci(nnz);
  std::vector<value_t> vv(nnz);
  f.diag_pos.assign(static_cast<std::size_t>(n), kInvalidIndex);
  f.a_scatter.assign(static_cast<std::size_t>(a.nnz()), kInvalidIndex);
  const auto acols = a.col_idx();
  const auto avals = a.values();
  constexpr index_t kAhead = 4;
#pragma omp parallel
  {
    // (new column, A position); kInvalidIndex marks an inserted diagonal.
    std::vector<std::pair<index_t, index_t>> buf;
#pragma omp for schedule(dynamic, 64)
    for (index_t r = 0; r < n; ++r) {
      // Under a preordering A's rows are visited out of order: fetch ahead.
      if (r + kAhead < n) {
        const index_t ahead = perm[static_cast<std::size_t>(r + kAhead)];
        __builtin_prefetch(acols.data() + a.row_begin(ahead));
        __builtin_prefetch(avals.data() + a.row_begin(ahead));
      }
      const index_t old_r = perm[static_cast<std::size_t>(r)];
      buf.clear();
      for (index_t k = a.row_begin(old_r); k < a.row_end(old_r); ++k) {
        buf.emplace_back(inv[static_cast<std::size_t>(acols[static_cast<std::size_t>(k)])], k);
      }
      const std::size_t row_len = static_cast<std::size_t>(
          rp[static_cast<std::size_t>(r) + 1] - rp[static_cast<std::size_t>(r)]);
      if (buf.size() < row_len) buf.emplace_back(r, kInvalidIndex);
      std::sort(buf.begin(), buf.end());
      index_t w = rp[static_cast<std::size_t>(r)];
      for (const auto& [c, k] : buf) {
        ci[static_cast<std::size_t>(w)] = c;
        vv[static_cast<std::size_t>(w)] =
            k == kInvalidIndex ? value_t{0} : avals[static_cast<std::size_t>(k)];
        if (k != kInvalidIndex) f.a_scatter[static_cast<std::size_t>(k)] = w;
        if (c == r) f.diag_pos[static_cast<std::size_t>(r)] = w;
        ++w;
      }
    }
  }
  f.lu = CsrMatrix(n, n, std::move(rp), std::move(ci), std::move(vv));
  f.symbolic = SymbolicStats{static_cast<index_t>(nnz), 0, added};
}

}  // namespace

Range lower_row_block(const Factorization& f, int team, int t) {
  const index_t n_lower = f.plan.num_lower_rows();
  if (n_lower == 0) return {f.plan.n, f.plan.n};
  // Block k starts at the first row whose prefix reaches k/team of the
  // total; the last block ends at n.
  const auto& work = f.lower_work;
  const auto cut = [&](int k) -> index_t {
    if (k >= team) return n_lower;
    const offset_t target = work.back() * k / team;
    return static_cast<index_t>(
        std::lower_bound(work.begin(), work.end(), target) - work.begin());
  };
  return {f.plan.n_upper + cut(t), f.plan.n_upper + cut(t + 1)};
}

void scatter_values_searched(Factorization& f, const CsrMatrix& a) {
  // Values travel: a (preordered) -> symbolic pattern -> plan permutation.
  // The factor rows are plan.perm[r] of the symbolic pattern, whose columns
  // map through the inverse permutation; we reuse the stored column indices
  // and only refresh values, walking a's rows in permuted order.
  const index_t n = f.n();
  const auto& perm = f.plan.perm;
  const std::vector<index_t> inv = invert_permutation(perm);
#pragma omp parallel for schedule(dynamic, 64)
  for (index_t r = 0; r < n; ++r) {
    const index_t old_r = perm[static_cast<std::size_t>(r)];
    auto vals = f.lu.row_vals_mut(r);
    auto cols = f.lu.row_cols(r);
    // Zero (fill positions) then scatter a's row via the permuted columns.
    for (auto& v : vals) v = 0;
    for (index_t k = a.row_begin(old_r); k < a.row_end(old_r); ++k) {
      const index_t new_c =
          inv[static_cast<std::size_t>(a.col_idx()[static_cast<std::size_t>(k)])];
      const auto it = std::lower_bound(cols.begin(), cols.end(), new_c);
      if (it != cols.end() && *it == new_c) {
        vals[static_cast<std::size_t>(it - cols.begin())] =
            a.values()[static_cast<std::size_t>(k)];
      }
    }
  }
}

void build_scatter_map(Factorization& f, const CsrMatrix& a) {
  // Same index chase as scatter_values_searched, performed ONCE: record
  // where each a-nonzero lands. Walking a's rows in permuted order touches
  // every original row exactly once, so writes to a_scatter never race.
  const index_t n = f.n();
  const auto& perm = f.plan.perm;
  const std::vector<index_t> inv = invert_permutation(perm);
  f.a_scatter.assign(static_cast<std::size_t>(a.nnz()), kInvalidIndex);
#pragma omp parallel for schedule(dynamic, 64)
  for (index_t r = 0; r < n; ++r) {
    const index_t old_r = perm[static_cast<std::size_t>(r)];
    auto cols = f.lu.row_cols(r);
    const index_t base = f.lu.row_begin(r);
    for (index_t k = a.row_begin(old_r); k < a.row_end(old_r); ++k) {
      const index_t new_c =
          inv[static_cast<std::size_t>(a.col_idx()[static_cast<std::size_t>(k)])];
      const auto it = std::lower_bound(cols.begin(), cols.end(), new_c);
      if (it != cols.end() && *it == new_c) {
        f.a_scatter[static_cast<std::size_t>(k)] =
            base + static_cast<index_t>(it - cols.begin());
      }
    }
  }
}

void scatter_values(Factorization& f, const CsrMatrix& a) {
  if (f.a_scatter.size() != static_cast<std::size_t>(a.nnz())) {
    build_scatter_map(f, a);
  }
#ifndef NDEBUG
  // The nnz test above cannot see a pattern change with equal nnz (the
  // documented ilu_refactor precondition). Debug builds re-derive the map
  // and compare, catching a mismatched matrix before it corrupts the factor.
  {
    std::vector<index_t> saved = std::move(f.a_scatter);
    build_scatter_map(f, a);
    JAVELIN_CHECK(saved == f.a_scatter,
                  "scatter_values: matrix pattern differs from the factored "
                  "pattern the scatter map was built for");
  }
#endif
  // Flat O(nnz) refresh: zero everything (fill positions), then copy each
  // a-nonzero straight to its precomputed slot. Distinct slots — race-free.
  auto lv = f.lu.values_mut();
  const auto av = a.values();
  const auto& map = f.a_scatter;
  const std::ptrdiff_t lu_nnz = static_cast<std::ptrdiff_t>(lv.size());
  const std::ptrdiff_t a_nnz = static_cast<std::ptrdiff_t>(av.size());
#pragma omp parallel
  {
#pragma omp for schedule(static)
    for (std::ptrdiff_t k = 0; k < lu_nnz; ++k) {
      lv[static_cast<std::size_t>(k)] = 0;
    }
    // (implicit barrier: all zeroing precedes all scattering)
#pragma omp for schedule(static)
    for (std::ptrdiff_t k = 0; k < a_nnz; ++k) {
      const index_t p = map[static_cast<std::size_t>(k)];
      if (p != kInvalidIndex) {
        lv[static_cast<std::size_t>(p)] = av[static_cast<std::size_t>(k)];
      }
    }
  }
}

FactorStatus ilu_factor_numeric_status(Factorization& f) {
  const TwoStagePlan& plan = f.plan;
  WorkspacePool pool(f);
  const RowKernelParams params = kernel_params(f.opts);
  const FaultHook& hook = f.opts.fault_hook;
  FactorView fv{f.lu.row_ptr(), f.lu.col_idx(), f.lu.values_mut(), f.diag_pos};

  // Upper stage: level-scheduled up-looking rows under the factor's
  // execution backend. A refactorization team dialed below the plan
  // (omp_set_num_threads after factoring — the time-stepping use case)
  // retargets the schedule through the factor's own cache instead of
  // degrading to the serial order. The one-shot factor phase deliberately
  // skips the oversubscription clamp: the plan width was an explicit
  // request, and the numeric phase runs once, not thousands of times.
  const int team = std::max(1, std::min(plan.threads, max_threads()));
  const ExecSchedule* fwd = &f.fwd;
  if (team != f.fwd.threads) {
    if (f.numeric_cache.threads != team) {
      f.numeric_cache.fwd = retarget(f.fwd, lower_triangular_deps(f.lu), team);
      f.numeric_cache.bwd = ExecSchedule{};  // numeric phase never sweeps bwd
      f.numeric_cache.fused.reset();
      f.numeric_cache.threads = team;
      if (verify_schedules_enabled(f.opts)) {
        verify::verify_schedule_or_throw(f.numeric_cache.fwd,
                                         lower_triangular_deps(f.lu),
                                         "numeric fwd retarget");
      }
    }
    fwd = &f.numeric_cache.fwd;
  }
  // Guarded row function: a failed pivot poisons the region, peers drain
  // out of their spin-waits, and the first failing row comes back in the
  // ExecStatus — no exception ever crosses the parallel region.
  const auto numeric_row = [&](index_t r, int t) -> bool {
    RowWorkspace& ws = pool.get(t);
    if (!factor_row(fv, r, ws, params)) return false;
    return !hook || hook(FaultSite::kFactorRow, r);
  };
  ExecStatus st;
  if (f.opts.exec_obs != nullptr && !hook) {
    ProgressCounters progress;
    st = exec_run_obs(*fwd, numeric_row, progress, *f.opts.exec_obs,
                      obs::Region::kFactor);
  } else {
    st = exec_run(*fwd, numeric_row);
  }
  if (!st.ok()) return {FactorOutcome::kBadPivot, st.row};

  // Lower stage. Its first pass only divides by already-validated upper
  // pivots, so it cannot break down; the corner can.
  if (plan.method == LowerMethod::kNone) return {};
  factor_lower(f, pool, team);
  const obs::TraceSpan span("factor_corner");
  return factor_corner(f, pool, team);
}

void ilu_factor_numeric(Factorization& f) {
  const FactorStatus st = ilu_factor_numeric_status(f);
  if (!st.ok()) throw_pivot(st.row);
}

Factorization ilu_prepare(const CsrMatrix& a, const IluOptions& opts) {
  JAVELIN_CHECK(a.square(), "ILU requires a square matrix");
  Factorization f;
  f.opts = opts;
  // One trace span per setup phase, so a trace shows where setup went.
  const auto traced = [](const char* name, const auto& phase) {
    const obs::TraceSpan span(name);
    return phase();
  };

  // Preordering (paper §IV), folded into plan.perm so every consumer stays
  // in the caller's order. ILU(0)'s pattern is A's plus the diagonal, which
  // no level reads, so its plan reuses the ordered level sets and A is
  // permuted ONCE, straight into the factor (permute_ilu0). ILU(k>0) fill
  // depends on the order: it permutes A first and plans on the ordered fill.
  Preorder pre;
  CsrMatrix a_ordered;  // ILU(k>0) under an ordering only
  const Timer order_timer;
  traced("prepare_order", [&] {
    pre = choose_preorder(a, opts);
    if (opts.fill_level > 0 && !pre.perm.empty()) {
      a_ordered = permute_symmetric(a, pre.perm);
    }
  });
  const double order_s = order_timer.seconds();
  const bool fill_ordered = a_ordered.rows() > 0;

  if (opts.fill_level == 0) {
    f.plan = traced("prepare_plan", [&] {
      return build_two_stage_plan(a, pre.levels, pre.perm, opts);
    });
    traced("prepare_permute", [&] { permute_ilu0(a, f); });
  } else {
    const CsrMatrix s = traced("prepare_symbolic", [&] {
      return ilu_symbolic(fill_ordered ? a_ordered : a, opts.fill_level,
                          &f.symbolic);
    });
    f.plan = traced("prepare_plan", [&] {
      return build_two_stage_plan(s, compute_level_sets(s, opts.level_pattern),
                                  {}, opts);
    });
    traced("prepare_permute", [&] {
      f.lu = permute_symmetric(s, f.plan.perm);
      f.diag_pos = diagonal_positions(f.lu);
      // s is in the ordered numbering: map the plan to the caller's rows.
      if (fill_ordered) {
        f.plan.perm = compose_permutations(pre.perm, f.plan.perm);
      }
    });
    // Plan-time scatter map: every ilu_refactor becomes a flat O(nnz) copy.
    traced("prepare_scatter_map", [&] { build_scatter_map(f, a); });
  }
  f.plan.ordering = pre.ordering;
  f.plan.natural_levels = pre.natural_levels;
  f.plan.ordered_levels = pre.ordered_levels;
  f.plan.order_s = order_s;

  const index_t chunk =
      opts.p2p_chunk_rows > 0 ? opts.p2p_chunk_rows : kDefaultChunkRows;
  f.fwd = traced("prepare_fwd_schedule", [&] {
    return build_upper_forward_schedule(f.lu, f.plan.upper_level_ptr,
                                        opts.exec_backend, f.plan.threads,
                                        chunk);
  });
  f.bwd = traced("prepare_bwd_schedule", [&] {
    return build_backward_schedule(f.lu, opts.exec_backend, f.plan.threads,
                                   chunk);
  });
  // Spin-wait escalation budget: carried by the schedules (retarget
  // preserves it) so every executor branch sees the configured ladder.
  f.fwd.spin_budget = opts.spin_max_pauses;
  f.bwd.spin_budget = opts.spin_max_pauses;
  traced("prepare_tags", [&] { tag_narrow_levels(f); });
  if (verify_schedules_enabled(opts)) {
    traced("prepare_verify", [&] {
      verify::verify_schedule_or_throw(f.fwd, lower_triangular_deps(f.lu),
                                       "fwd");
      verify::verify_schedule_or_throw(f.bwd, upper_triangular_deps(f.lu),
                                       "bwd");
    });
  }
  if (f.plan.num_lower_rows() > 0) f.lower_work = lower_work_prefix(f);
  if (opts.parallel_corner && f.plan.num_lower_rows() > 0) {
    // Barrier level-set schedule over the corner block pattern (lower rows,
    // corner columns), in LOCAL indices [0, n_lower).
    const index_t n_lower = f.plan.num_lower_rows();
    std::vector<index_t> rp(static_cast<std::size_t>(n_lower) + 1, 0);
    std::vector<index_t> ci;
    for (index_t i = 0; i < n_lower; ++i) {
      const index_t r = f.plan.n_upper + i;
      for (index_t c : f.lu.row_cols(r)) {
        if (c >= f.plan.n_upper && c <= r) ci.push_back(c - f.plan.n_upper);
      }
      rp[static_cast<std::size_t>(i) + 1] = static_cast<index_t>(ci.size());
    }
    std::vector<value_t> vv(ci.size(), 1.0);
    const CsrMatrix corner_pat(n_lower, n_lower, std::move(rp), std::move(ci),
                               std::move(vv));
    const LevelSets cls = compute_level_sets_lower(corner_pat);
    f.corner = build_exec_schedule(ExecBackend::kBarrier, n_lower,
                                   cls.level_ptr, cls.rows_by_level,
                                   lower_triangular_deps(corner_pat),
                                   f.plan.threads, chunk);
    f.corner.spin_budget = opts.spin_max_pauses;
    // Verified here, while corner_pat (the dependency pattern) is alive.
    if (verify_schedules_enabled(opts)) {
      verify::verify_schedule_or_throw(
          f.corner, lower_triangular_deps(corner_pat), "corner");
    }
  }

  return f;
}

Factorization ilu_factor(const CsrMatrix& a, const IluOptions& opts) {
  Factorization f = ilu_prepare(a, opts);
  ilu_factor_numeric(f);
  return f;
}

void ilu_refactor(Factorization& f, const CsrMatrix& a) {
  const FactorStatus st = ilu_refactor_status(f, a);
  if (!st.ok()) throw_pivot(st.row);
}

FactorStatus ilu_refactor_status(Factorization& f, const CsrMatrix& a) {
  JAVELIN_CHECK(a.rows() == f.n() && a.cols() == f.n(),
                "refactor dimension mismatch");
  scatter_values(f, a);
  return ilu_factor_numeric_status(f);
}

}  // namespace javelin
