// Batched many-RHS solve path — the "millions of users" serving axis
// (ROADMAP item 1). One immutable Factorization is amortized across many
// concurrent right-hand sides two complementary ways:
//
//   * PANEL SWEEPS: k right-hand sides are stored column-major in an n×k
//     panel and swept together under the SAME execution schedules as the
//     scalar solve — each row's L/U entries are loaded once per register
//     block of columns (sparse/panel.hpp) instead of once per RHS,
//     converting the bandwidth-bound scalar sweep into a register-blocked
//     panel kernel. Synchronization (spin-waits or level barriers) is paid
//     once per panel, not once per RHS — exactly the cost the suite-scale
//     bench showed dominating parallel solves.
//
//   * WORKSPACE POOLS: independent serving streams check SolveWorkspaces out
//     of a WorkspacePool and run concurrent ilu_apply/ilu_apply_panel calls
//     against one shared factor (the apply paths are thread-safe across
//     distinct workspaces; the factor is never written after construction).
//
// The standing bitwise guarantee extends to this path: a batched solve of k
// right-hand sides is bitwise equal to k independent scalar solves, at every
// thread count, under every level-regime tagging, fused and unfused —
// column j's accumulation order is the scalar order by construction
// (test_batch).
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/obs/trace.hpp"

namespace javelin {

/// Default panel width of solve_many when IluOptions::batch_rhs <= 0. Eight
/// columns saturate the register block (sparse/panel.hpp), so wider panels
/// only grow the workspace without loading factor entries less often.
inline constexpr index_t kDefaultBatchRhs = 8;

/// The panel width `f` was configured for (its batch_rhs, defaulted).
inline index_t batch_rhs_of(const Factorization& f) noexcept {
  return f.opts.batch_rhs > 0 ? f.opts.batch_rhs : kDefaultBatchRhs;
}

/// Panel preconditioner application Z = (L U)^{-1} R for k right-hand sides
/// stored column-major (R and Z are n×k, column stride n, ORIGINAL row
/// ordering; they must not overlap). Column j is bitwise equal to
/// ilu_apply(f, column j of R, column j of Z, ws) at every thread count and
/// level tagging. Throws when k < 1 or a span is smaller than n×k. Thread-safe
/// across distinct workspaces.
void ilu_apply_panel(const Factorization& f, std::span<const value_t> r,
                     std::span<value_t> z, index_t k, SolveWorkspace& ws);

/// Serial-reference panel apply used by the property tests.
void ilu_apply_panel_serial(const Factorization& f, std::span<const value_t> r,
                            std::span<value_t> z, index_t k,
                            SolveWorkspace& ws);

/// Fused panel pass: Z = (LU)^{-1} R and T = A Z for k column-major
/// right-hand sides in ONE scheduled pass (the panel analog of
/// ilu_apply_spmv — gather and scatter folded into the sweeps, SpMV chunks
/// streamed behind the backward sweep on the same progress counters).
/// Column j is bitwise equal to the scalar fused pass on column j. Throws
/// when k < 1 or a span is smaller than n×k.
void ilu_apply_spmv_panel(const Factorization& f, const CsrMatrix& a,
                          const FusedApplySpmv& fs, std::span<const value_t> r,
                          std::span<value_t> z, std::span<value_t> t,
                          index_t k, SolveWorkspace& ws);

/// Pool of SolveWorkspaces for concurrent serving streams sharing one
/// factorization. acquire() hands out an exclusive lease (recycling an idle
/// workspace when one exists, allocating otherwise); the lease returns the
/// workspace — with its grown buffers, warm progress counters and retarget
/// cache — on destruction. All methods are thread-safe; the leased
/// workspace itself is exclusively owned until released.
class WorkspacePool {
 public:
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept
        : pool_(o.pool_), ws_(std::move(o.ws_)), trace_t0_(o.trace_t0_) {
      o.pool_ = nullptr;
      o.trace_t0_ = 0;
    }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release();
        pool_ = o.pool_;
        ws_ = std::move(o.ws_);
        trace_t0_ = o.trace_t0_;
        o.pool_ = nullptr;
        o.trace_t0_ = 0;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    SolveWorkspace& operator*() const noexcept { return *ws_; }
    SolveWorkspace* operator->() const noexcept { return ws_.get(); }

   private:
    friend class WorkspacePool;
    Lease(WorkspacePool* pool, std::unique_ptr<SolveWorkspace> ws)
        : pool_(pool), ws_(std::move(ws)) {
      // Lease-lifetime tracing: acquire and release may run on different
      // threads (streams hand leases around), so the span is emitted as one
      // complete ('X') event at release instead of a B/E pair.
      if (obs::TraceSession::instance().enabled()) trace_t0_ = obs::now_ns();
    }
    void release() noexcept {
      if (pool_ && ws_) {
        if (trace_t0_ != 0) {
          obs::TraceSession& ts = obs::TraceSession::instance();
          if (ts.enabled()) {
            ts.buffer().complete("lease", trace_t0_,
                                 obs::now_ns() - trace_t0_);
          }
        }
        pool_->put(std::move(ws_));
      }
      pool_ = nullptr;
    }
    WorkspacePool* pool_ = nullptr;
    std::unique_ptr<SolveWorkspace> ws_;
    std::int64_t trace_t0_ = 0;
  };

  WorkspacePool() = default;
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  Lease acquire();

  /// Workspaces currently sitting idle in the pool (diagnostics).
  std::size_t idle() const;

 private:
  void put(std::unique_ptr<SolveWorkspace> ws);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SolveWorkspace>> free_;
};

/// Batched serving entry point: solve k right-hand sides (column-major n×k
/// panels R → Z, original row ordering) against one factorization, sweeping
/// panels of at most batch_rhs_of(f) columns per scheduled pass. Bitwise
/// equal to k independent ilu_apply calls. Throws when k < 1 or a span is
/// smaller than n×k.
void solve_many(const Factorization& f, std::span<const value_t> r,
                std::span<value_t> z, index_t k, SolveWorkspace& ws);

/// solve_many over a pooled workspace (the serving-stream form: concurrent
/// callers each check a workspace out of the shared pool).
void solve_many(const Factorization& f, std::span<const value_t> r,
                std::span<value_t> z, index_t k, WorkspacePool& pool);

/// Convenience overload with a per-call workspace (allocates; prefer the
/// workspace or pool overloads in serving loops).
void solve_many(const Factorization& f, std::span<const value_t> r,
                std::span<value_t> z, index_t k);

}  // namespace javelin
