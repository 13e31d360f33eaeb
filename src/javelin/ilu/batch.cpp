#include "javelin/ilu/batch.hpp"

#include <algorithm>
#include <string>

#include "javelin/exec/run.hpp"
#include "javelin/ilu/forward_sweep.hpp"
#include "javelin/ilu/trsv_kernels.hpp"
#include "javelin/sparse/panel.hpp"
#include "javelin/support/parallel.hpp"

namespace javelin {

using detail::backward_row_panel;
using detail::for_each_panel_block;
using detail::lower_partial_panel;
using detail::spmv_row_panel;

namespace {

/// Shared entry validation of the batched paths (the PR 3 Matrix-Market
/// contract: malformed dimensions throw instead of reading out of bounds).
void check_panel(const Factorization& f, std::size_t r_size, std::size_t z_size,
                 index_t k, const char* what) {
  JAVELIN_CHECK(k >= 1, std::string(what) + " requires k >= 1 right-hand sides");
  const std::size_t need =
      static_cast<std::size_t>(f.n()) * static_cast<std::size_t>(k);
  JAVELIN_CHECK(r_size >= need,
                std::string(what) + ": rhs panel smaller than n x k");
  JAVELIN_CHECK(z_size >= need,
                std::string(what) + ": solution panel smaller than n x k");
}

/// Panel gather x = P r (columns independent; elementwise, so the parallel
/// split never changes values).
void gather_panel(std::span<const index_t> perm, std::span<const value_t> r,
                  value_t* x, index_t n, index_t k) {
  const std::size_t un = static_cast<std::size_t>(n);
#pragma omp parallel for collapse(2) schedule(static)
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(j) * un + static_cast<std::size_t>(i)] =
          r[static_cast<std::size_t>(j) * un +
            static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
    }
  }
}

/// Panel scatter z = Pᵀ x.
void scatter_panel(std::span<const index_t> perm, const value_t* x,
                   std::span<value_t> z, index_t n, index_t k) {
  const std::size_t un = static_cast<std::size_t>(n);
#pragma omp parallel for collapse(2) schedule(static)
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      z[static_cast<std::size_t>(j) * un +
        static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
          x[static_cast<std::size_t>(j) * un + static_cast<std::size_t>(i)];
    }
  }
}

}  // namespace

void ilu_apply_panel(const Factorization& f, std::span<const value_t> r,
                     std::span<value_t> z, index_t k, SolveWorkspace& ws) {
  check_panel(f, r.size(), z.size(), k, "ilu_apply_panel");
  const index_t n = f.n();
  const std::size_t un = static_cast<std::size_t>(n);
  ws.resize_panel(n, f.plan.num_lower_rows(), k);
  value_t* x = ws.x.data();

  gather_panel(f.plan.perm, r, x, n, k);
  const ExecStatus fst = detail::forward_sweep_panel(
      f,
      [x, un](index_t row, index_t j) {
        return x[static_cast<std::size_t>(row) + static_cast<std::size_t>(j) * un];
      },
      x, un, k, ws);
  if (!fst.ok()) {
    throw AbortError("panel forward sweep aborted at permuted row " +
                     std::to_string(fst.row) + " (fault injection)");
  }
  const CsrMatrix& lu = f.lu;
  const FaultHook& hook = f.opts.fault_hook;
  const auto backward_panel_row = [&](index_t row) {
    for_each_panel_block(k, [&](index_t j0, auto kb) {
      constexpr int KB = decltype(kb)::value;
      backward_row_panel<KB>(lu, f.diag_pos, row,
                             x + static_cast<std::size_t>(j0) * un, un);
    });
  };
  if (hook) {
    const ExecStatus bst = exec_run(
        runtime_bwd(f, ws.sched),
        [&](index_t row, int) -> bool {
          backward_panel_row(row);
          return hook(FaultSite::kBackwardRow, row);
        },
        ws.progress);
    if (!bst.ok()) {
      // Converted OUTSIDE the parallel region: the abort itself drained
      // cooperatively; the throw is what exercises caller RAII (leases).
      throw AbortError("panel backward sweep aborted at permuted row " +
                       std::to_string(bst.row) + " (fault injection)");
    }
  } else if (f.opts.exec_obs != nullptr) {
    exec_run_obs(
        runtime_bwd(f, ws.sched),
        [&](index_t row, int) { backward_panel_row(row); }, ws.progress,
        *f.opts.exec_obs, obs::Region::kBackward);
  } else {
    exec_run(
        runtime_bwd(f, ws.sched),
        [&](index_t row, int) { backward_panel_row(row); }, ws.progress);
  }
  scatter_panel(f.plan.perm, x, z, n, k);
}

void ilu_apply_panel_serial(const Factorization& f, std::span<const value_t> r,
                            std::span<value_t> z, index_t k,
                            SolveWorkspace& ws) {
  check_panel(f, r.size(), z.size(), k, "ilu_apply_panel");
  const index_t n = f.n();
  const std::size_t un = static_cast<std::size_t>(n);
  ws.resize_panel(n, f.plan.num_lower_rows(), k);
  value_t* x = ws.x.data();
  const auto& perm = f.plan.perm;
  const CsrMatrix& lu = f.lu;

  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(j) * un + static_cast<std::size_t>(i)] =
          r[static_cast<std::size_t>(j) * un +
            static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
    }
  }
  for (index_t row = 0; row < n; ++row) {
    for_each_panel_block(k, [&](index_t j0, auto kb) {
      constexpr int KB = decltype(kb)::value;
      value_t acc[KB] = {};
      value_t* xb = x + static_cast<std::size_t>(j0) * un;
      lower_partial_panel<KB>(lu, row, n, xb, un, acc);
      for (int j = 0; j < KB; ++j) {
        value_t& slot =
            xb[static_cast<std::size_t>(row) + static_cast<std::size_t>(j) * un];
        slot = slot - acc[j];
      }
    });
  }
  for (index_t row = n; row-- > 0;) {
    for_each_panel_block(k, [&](index_t j0, auto kb) {
      constexpr int KB = decltype(kb)::value;
      backward_row_panel<KB>(lu, f.diag_pos, row,
                             x + static_cast<std::size_t>(j0) * un, un);
    });
  }
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      z[static_cast<std::size_t>(j) * un +
        static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
          x[static_cast<std::size_t>(j) * un + static_cast<std::size_t>(i)];
    }
  }
}

namespace {

/// Straight-line panel backward sweep (scatter folded in) followed by the
/// panel SpMV — the single-thread execution of the fused panel pass and the
/// short-team fallback (mirrors serial_backward_spmv in fused.cpp).
ExecStatus serial_backward_spmv_panel(const Factorization& f,
                                      const CsrMatrix& a, value_t* x,
                                      std::span<value_t> z,
                                      std::span<value_t> t, index_t k) {
  const std::size_t un = static_cast<std::size_t>(f.n());
  const auto& perm = f.plan.perm;
  const CsrMatrix& lu = f.lu;
  const FaultHook& hook = f.opts.fault_hook;
  for (index_t row : f.bwd.serial_order) {
    const std::size_t pr = static_cast<std::size_t>(perm[static_cast<std::size_t>(row)]);
    for_each_panel_block(k, [&](index_t j0, auto kb) {
      constexpr int KB = decltype(kb)::value;
      value_t* xb = x + static_cast<std::size_t>(j0) * un;
      backward_row_panel<KB>(lu, f.diag_pos, row, xb, un);
      for (int j = 0; j < KB; ++j) {
        z[pr + (static_cast<std::size_t>(j0) + static_cast<std::size_t>(j)) * un] =
            xb[static_cast<std::size_t>(row) + static_cast<std::size_t>(j) * un];
      }
    });
    if (hook && !hook(FaultSite::kBackwardRow, row)) {
      return {ExecOutcome::kAborted, row};
    }
  }
  for (index_t row = 0; row < a.rows(); ++row) {
    for_each_panel_block(k, [&](index_t j0, auto kb) {
      constexpr int KB = decltype(kb)::value;
      spmv_row_panel<KB>(a, row, z.data() + static_cast<std::size_t>(j0) * un,
                         un, t.data() + static_cast<std::size_t>(j0) * un, un);
    });
  }
  return {};
}

[[noreturn]] void throw_fused_panel_abort(index_t row) {
  throw AbortError("fused panel apply+spmv aborted at permuted row " +
                   std::to_string(row) + " (fault injection)");
}

}  // namespace

void ilu_apply_spmv_panel(const Factorization& f, const CsrMatrix& a,
                          const FusedApplySpmv& fs, std::span<const value_t> r,
                          std::span<value_t> z, std::span<value_t> t,
                          index_t k, SolveWorkspace& ws) {
  check_panel(f, r.size(), z.size(), k, "ilu_apply_spmv_panel");
  JAVELIN_CHECK(t.size() >= static_cast<std::size_t>(f.n()) *
                                static_cast<std::size_t>(k),
                "ilu_apply_spmv_panel: spmv panel smaller than n x k");
  const index_t n = f.n();
  const std::size_t un = static_cast<std::size_t>(n);
  ws.resize_panel(n, f.plan.num_lower_rows(), k);
  value_t* x = ws.x.data();
  const auto& perm = f.plan.perm;
  const CsrMatrix& lu = f.lu;
  // Region-granularity span only: the panel fused region's sweeps reuse the
  // fused.cpp synchronization structure but stay on the uninstrumented
  // fast path (the forward/backward panel sweeps above and in
  // ilu_apply_panel carry full per-level telemetry via exec_run_obs).
  obs::TraceSpan fused_panel_span("fused_panel");

  const FusedRuntime rt = runtime_fused_schedule(f, a, fs, ws);
  const FaultHook& hook = f.opts.fault_hook;
  if (rt.team <= 1) {
    // Single-thread team: gather+forward, backward+scatter and the SpMV as
    // straight-line panel sweeps with zero synchronization (the panel analog
    // of the scalar fused serial path — bitwise-identical accumulation).
    for (index_t row = 0; row < n; ++row) {
      for_each_panel_block(k, [&](index_t j0, auto kb) {
        constexpr int KB = decltype(kb)::value;
        value_t acc[KB] = {};
        value_t* xb = x + static_cast<std::size_t>(j0) * un;
        lower_partial_panel<KB>(lu, row, n, xb, un, acc);
        const std::size_t pr =
            static_cast<std::size_t>(perm[static_cast<std::size_t>(row)]);
        for (int j = 0; j < KB; ++j) {
          xb[static_cast<std::size_t>(row) + static_cast<std::size_t>(j) * un] =
              r[pr + (static_cast<std::size_t>(j0) + static_cast<std::size_t>(j)) * un] -
              acc[j];
        }
      });
      if (hook && !hook(FaultSite::kForwardRow, row)) {
        throw_fused_panel_abort(row);
      }
    }
    const ExecStatus bst = serial_backward_spmv_panel(f, a, x, z, t, k);
    if (!bst.ok()) throw_fused_panel_abort(bst.row);
    return;
  }

  // Forward sweep with the panel gather folded into each row.
  const ExecStatus fst = detail::forward_sweep_panel(
      f,
      [&r, &perm, un](index_t row, index_t j) {
        return r[static_cast<std::size_t>(perm[static_cast<std::size_t>(row)]) +
                 static_cast<std::size_t>(j) * un];
      },
      x, un, k, ws);
  if (!fst.ok()) throw_fused_panel_abort(fst.row);

  const ExecSchedule* s = rt.bwd;
  const FusedApplySpmv* chunks = rt.chunks;
  // Shared poison domain of the backward items and the SpMV chunk waits
  // (see the scalar region in fused.cpp); null without a hook, so
  // production sweeps keep the no-polling waits.
  AbortFlag abort_flag;
  AbortFlag* const ab = hook ? &abort_flag : nullptr;
  const auto backward_scatter_row = [&](index_t row) -> bool {
    const std::size_t pr =
        static_cast<std::size_t>(perm[static_cast<std::size_t>(row)]);
    for_each_panel_block(k, [&](index_t j0, auto kb) {
      constexpr int KB = decltype(kb)::value;
      value_t* xb = x + static_cast<std::size_t>(j0) * un;
      backward_row_panel<KB>(lu, f.diag_pos, row, xb, un);
      for (int j = 0; j < KB; ++j) {
        z[pr + (static_cast<std::size_t>(j0) + static_cast<std::size_t>(j)) * un] =
            xb[static_cast<std::size_t>(row) + static_cast<std::size_t>(j) * un];
      }
    });
    if (hook && !hook(FaultSite::kBackwardRow, row)) {
      ab->request(row);
      return false;
    }
    return true;
  };
  const auto spmv_panel_row = [&](index_t row) {
    for_each_panel_block(k, [&](index_t j0, auto kb) {
      constexpr int KB = decltype(kb)::value;
      spmv_row_panel<KB>(a, row, z.data() + static_cast<std::size_t>(j0) * un,
                         un, t.data() + static_cast<std::size_t>(j0) * un, un);
    });
  };

  if (s->hybrid()) {
    // Tagged backward schedule (narrow levels serialized, or CSR-LS): run the
    // panel backward sweep through exec_run's segment walk (scatter fused into
    // the row fn), then the panel SpMV in a second region — the panel mirror of
    // the scalar tagged path in fused.cpp. The hook-free variant keeps the
    // void-returning row fn so its waits stay on the no-polling path.
    if (hook) {
      const ExecStatus bst = exec_run(
          *s,
          [&](index_t row, int) -> bool { return backward_scatter_row(row); },
          ws.progress, ab);
      if (!bst.ok()) throw_fused_panel_abort(bst.row);
    } else {
      exec_run(
          *s, [&](index_t row, int) { (void)backward_scatter_row(row); },
          ws.progress);
    }
#pragma omp parallel for schedule(static) num_threads(rt.team)
    for (index_t row = 0; row < n; ++row) spmv_panel_row(row);
    return;
  }

  bool fallback = false;
  {
    ProgressCounters& progress = ws.progress;
    if (progress.num_threads() < s->threads) {
      progress.reset(s->threads);
    } else {
      progress.rearm();
    }
    // One region for the panel backward sweep AND the panel SpMV — the panel
    // mirror of ilu_apply_spmv's region (fused.cpp); keep the
    // synchronization structure in sync with it when changing either.
#pragma omp parallel num_threads(s->threads)
    {
      if (team_size() < s->threads) {
        if (thread_id() == 0) fallback = true;  // sole writer
      } else {
        const int tid = thread_id();
        const int spin_budget =
            s->spin_budget > 0 ? s->spin_budget : spin_budget_for(s->threads);
        bool live = true;
        index_t done = 0;
        for (index_t i = s->thread_ptr[static_cast<std::size_t>(tid)];
             i < s->thread_ptr[static_cast<std::size_t>(tid) + 1] && live;
             ++i) {
          if (ab != nullptr && ab->aborted()) {
            live = false;
            break;
          }
          for (index_t w = s->wait_ptr[static_cast<std::size_t>(i)];
               w < s->wait_ptr[static_cast<std::size_t>(i) + 1]; ++w) {
            if (!progress.wait_for(
                    static_cast<int>(
                        s->wait_thread[static_cast<std::size_t>(w)]),
                    s->wait_count[static_cast<std::size_t>(w)], spin_budget,
                    ab)) {
              live = false;
              break;
            }
          }
          if (!live) break;
          for (index_t pos = s->item_ptr[static_cast<std::size_t>(i)];
               pos < s->item_ptr[static_cast<std::size_t>(i) + 1]; ++pos) {
            if (!backward_scatter_row(
                    s->rows[static_cast<std::size_t>(pos)])) {
              live = false;
              break;
            }
          }
          // A failed item is never published: chunk waits on it observe
          // the flag and drain instead of spinning forever.
          if (!live) break;
          ++done;
          progress.publish(tid, done);
        }
        for (index_t c = chunks->thread_ptr[static_cast<std::size_t>(tid)];
             c < chunks->thread_ptr[static_cast<std::size_t>(tid) + 1] &&
             live;
             ++c) {
          for (index_t w = chunks->wait_ptr[static_cast<std::size_t>(c)];
               w < chunks->wait_ptr[static_cast<std::size_t>(c) + 1]; ++w) {
            if (!progress.wait_for(
                    static_cast<int>(
                        chunks->wait_thread[static_cast<std::size_t>(w)]),
                    chunks->wait_count[static_cast<std::size_t>(w)],
                    spin_budget, ab)) {
              live = false;
              break;
            }
          }
          if (!live) break;
          for (index_t row = chunks->chunk_begin[static_cast<std::size_t>(c)];
               row < chunks->chunk_end[static_cast<std::size_t>(c)]; ++row) {
            spmv_panel_row(row);
          }
        }
      }
    }
  }
  if (ab != nullptr && ab->aborted()) throw_fused_panel_abort(ab->row());
  if (fallback) {
    const ExecStatus bst = serial_backward_spmv_panel(f, a, x, z, t, k);
    if (!bst.ok()) throw_fused_panel_abort(bst.row);
  }
}

WorkspacePool::Lease WorkspacePool::acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_.empty()) {
    std::unique_ptr<SolveWorkspace> ws = std::move(free_.back());
    free_.pop_back();
    return Lease(this, std::move(ws));
  }
  return Lease(this, std::make_unique<SolveWorkspace>());
}

std::size_t WorkspacePool::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_.size();
}

void WorkspacePool::put(std::unique_ptr<SolveWorkspace> ws) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(ws));
}

void solve_many(const Factorization& f, std::span<const value_t> r,
                std::span<value_t> z, index_t k, SolveWorkspace& ws) {
  check_panel(f, r.size(), z.size(), k, "solve_many");
  const std::size_t un = static_cast<std::size_t>(f.n());
  const index_t batch = batch_rhs_of(f);
  for (index_t j0 = 0; j0 < k; j0 += batch) {
    const index_t w = std::min<index_t>(batch, k - j0);
    const std::size_t off = static_cast<std::size_t>(j0) * un;
    const std::size_t len = static_cast<std::size_t>(w) * un;
    ilu_apply_panel(f, r.subspan(off, len), z.subspan(off, len), w, ws);
  }
}

void solve_many(const Factorization& f, std::span<const value_t> r,
                std::span<value_t> z, index_t k, WorkspacePool& pool) {
  WorkspacePool::Lease lease = pool.acquire();
  solve_many(f, r, z, k, *lease);
}

void solve_many(const Factorization& f, std::span<const value_t> r,
                std::span<value_t> z, index_t k) {
  SolveWorkspace ws;
  solve_many(f, r, z, k, ws);
}

}  // namespace javelin
