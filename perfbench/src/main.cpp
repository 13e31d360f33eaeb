// Javelin benchmark: runs one workload through the library's public
// API at its defaults (ilu_factor with IluOptions{} at the OpenMP default
// team, P2P backend, no autotuner), checks every result, and prints every
// metric by name and unit. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload poisson3d|powerflow --seed N
//             --seconds S --trace 0|1 [--source-id ID] [--trace-dir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same loop
// with spans around the calls into each module (every other step, so the
// untraced steps give the tracing overhead) and adds a per-layer probe.
// Each workload is a closed loop: one caller waits for every result before
// issuing the next request.

#include <omp.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bytes.hpp"
#include "env.hpp"
#include "inputs.hpp"
#include "javelin/ilu/batch.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/obs/exec_obs.hpp"
#include "javelin/solver/batch.hpp"
#include "javelin/solver/krylov.hpp"
#include "javelin/sparse/spmv.hpp"
#include "javelin/tune/tune.hpp"
#include "spans.hpp"
#include "stats.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

using namespace javelin;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <class F>
double timed(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return since(t0);
}

constexpr double kTol = 1e-8;
constexpr int kSetupReps = 15;        // timed ilu_factor calls, spread over the run
constexpr int kCheckEvery = 8;        // 1 in 8 bare applies checked bitwise
constexpr index_t kPanelK = 16;       // columns of the panel-apply probe and gate
constexpr index_t kPanelSolves = 2;   // pcg_many columns the panel gate re-solves
constexpr int kApplyPool = 8;         // distinct bare-apply vectors
constexpr std::size_t kMinTail = 40;  // samples a tail needs: at or above p75
constexpr double kStealMax = 0.10;    // a step with more stolen CPU is "stolen"
constexpr double kHardLimitS = 90.0;  // stop sampling past this, tails or not

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id = "unknown";
  std::string trace_dir = ".";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
  bool in_result = true;  ///< false: printed, but not in the JSON result
};

/// Everything one run measures. Samples are per operation in seconds.
struct Run {
  Samples setup, apply, solve, refactor;
  long steps = 0, clean_steps = 0;
  long attempted = 0;
  long failed = 0;
  double loop_rss_mb = 0.0;  ///< high-water RSS when the timed loop ended
  std::vector<double> iterations, rel_residual;

  // Traced steps only: solver attribution.
  double traced_solve_s = 0.0, traced_precond_s = 0.0, traced_spmv_s = 0.0;
  long traced_iterations = 0;
  // pcg runs its SpMVs internally; their time is modelled as calls x the
  // probe's median SpMV time.
  long spmv_calls_modeled = 0;
  std::vector<double> solve_traced, solve_untraced;

  void fail(const std::string& what) {
    ++failed;
    if (failed <= 10) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
};

struct Ctx {
  Args args;
  CsrMatrix a;       ///< base matrix
  CsrMatrix a_cur;   ///< matrix the factor currently holds (powerflow: perturbed)
  Run run;
  SpanLog log;
  std::vector<std::vector<value_t>> apply_pool;
  SolveWorkspace ws_apply, ws_ref;
  std::shared_ptr<const RowPartition> part;
  Clock::time_point loop_start;
  CpuTicks step_ticks;

  SpanLog* log_for(long step) { return args.trace && step % 2 == 0 ? &log : nullptr; }
};

bool same_bits(std::span<const value_t> x, std::span<const value_t> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(value_t)) == 0;
}

double true_rel_residual(const CsrMatrix& a, const RowPartition& part,
                         std::span<const value_t> b,
                         std::span<const value_t> x) {
  std::vector<value_t> ax(b.size());
  spmv(a, part, x, ax);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rr += (b[i] - ax[i]) * (b[i] - ax[i]);
    bb += b[i] * b[i];
  }
  return std::sqrt(rr) / std::sqrt(bb);
}

/// The solve gate: converged, and the recomputed true residual is finite and
/// within the tolerance.
void check_solve(Ctx& c, const CsrMatrix& a, std::span<const value_t> b,
                 std::span<const value_t> x, const SolverResult& res,
                 const std::string& what) {
  const double rel = true_rel_residual(a, *c.part, b, x);
  c.run.iterations.push_back(res.iterations);
  c.run.rel_residual.push_back(rel);
  if (!res.converged) {
    c.run.fail(what + ": not converged (" + to_string(res.stop) + ")");
  } else if (!(rel <= kTol)) {
    std::ostringstream os;
    os << what << ": true relative residual " << rel << " above " << kTol;
    c.run.fail(os.str());
  }
}

// --- set-up -------------------------------------------------------------------

/// The workload's factor: ilu_factor at the library defaults. This first,
/// untimed factorization also spins up the OpenMP team and the allocator.
Factorization initial_factor(const Ctx& c) { return ilu_factor(c.a, IluOptions{}); }

/// One setup_s sample: ilu_factor from CSR to a ready factor, discarded.
void setup_sample(Ctx& c) {
  ++c.run.attempted;
  try {
    Factorization g;
    c.run.setup.push(timed([&] { g = ilu_factor(c.a, IluOptions{}); }));
  } catch (const std::exception& e) {
    c.run.fail(std::string("ilu_factor threw: ") + e.what());
  }
}

/// Takes the setup_s samples due by now: kSetupReps of them spread evenly
/// over the run, so the median sees the same host conditions as the other
/// metrics instead of one burst at start-up. Called right before the bare
/// applies, which allocate nothing, so freeing a sample's factor does not
/// change the allocator state a timed refactor or solve starts from.
void take_setup_samples(Ctx& c) {
  const double t = since(c.loop_start);
  const std::size_t due = std::min<std::size_t>(
      kSetupReps, 1 + static_cast<std::size_t>(kSetupReps * t / c.args.seconds));
  while (c.run.setup.all.size() < due) setup_sample(c);
}

/// Loop control, called before every step. It first closes the previous
/// step: the step's samples count as clean when the hypervisor stole at
/// most kStealMax of the CPU time during it (on this host steal ran from
/// 1 % to 37 % per run and slowed every metric with it). Then it says
/// whether to run another step: the loop runs for --seconds and then until
/// every tail has kMinTail samples (with fewer, "ten samples beyond" would
/// sit near the median) and every setup_s sample is taken.
bool next_step(Ctx& c) {
  const CpuTicks now = cpu_ticks();
  if (c.run.steps++ > 0) {
    const bool clean = steal_frac(c.step_ticks, now) <= kStealMax;
    c.run.clean_steps += clean ? 1 : 0;
    for (Samples* x : {&c.run.setup, &c.run.apply, &c.run.solve, &c.run.refactor}) {
      x->end_step(clean);
    }
  }
  c.step_ticks = now;
  const double t = since(c.loop_start);
  if (t >= kHardLimitS) return false;
  const bool done = c.run.apply.all.size() >= kMinTail &&
                    c.run.solve.all.size() >= kMinTail &&
                    c.run.refactor.all.size() >= kMinTail &&
                    c.run.setup.all.size() >= static_cast<std::size_t>(kSetupReps);
  return t < c.args.seconds || !done;
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- operation streams ---------------------------------------------------------

/// Bare ilu_apply calls on the current factor; 1 in kCheckEvery is compared
/// bitwise against ilu_apply_serial outside the timed region.
void apply_stream(Ctx& c, const Factorization& f, long step, int count) {
  SpanLog* log = c.log_for(step);
  const std::size_t n = static_cast<std::size_t>(f.n());
  std::vector<value_t> z(n), zref(n);
  for (int j = 0; j < count; ++j) {
    const long k = step * count + j;
    const std::vector<value_t>& r =
        c.apply_pool[static_cast<std::size_t>(k % kApplyPool)];
    ++c.run.attempted;
    try {
      double t;
      {
        SpanLog::Scope s(log, "apply", step);
        t = timed([&] { ilu_apply(f, r, z, c.ws_apply); });
      }
      c.run.apply.push(t);
      if (k % kCheckEvery == 0) {
        ilu_apply_serial(f, r, zref, c.ws_ref);
        if (!same_bits(z, zref)) c.run.fail("ilu_apply != ilu_apply_serial");
      }
    } catch (const std::exception& e) {
      c.run.fail(std::string("ilu_apply threw: ") + e.what());
    }
  }
}

/// In-place ilu_refactor; `expect` (when non-empty) is the bitwise factor
/// the refactor must reproduce.
void refactor_op(Ctx& c, Factorization& f, const CsrMatrix& a, long step,
                 std::span<const value_t> expect) {
  SpanLog* log = c.log_for(step);
  ++c.run.attempted;
  try {
    double t;
    {
      SpanLog::Scope s(log, "refactor", step);
      t = timed([&] { ilu_refactor(f, a); });
    }
    c.run.refactor.push(t);
    if (!expect.empty() && !same_bits(f.lu.values(), expect)) {
      c.run.fail("ilu_refactor with unchanged values changed the factor");
    }
  } catch (const std::exception& e) {
    c.run.fail(std::string("ilu_refactor threw: ") + e.what());
  }
}

/// Precondition wrapper that accumulates time (and a span) per call.
PrecondFn timed_precond(PrecondFn m, double& acc, SpanLog* log, long id) {
  return [m = std::move(m), &acc, log, id](std::span<const value_t> r,
                                           std::span<value_t> z) {
    SpanLog::Scope s(log, "precond", id);
    const Clock::time_point t0 = Clock::now();
    m(r, z);
    acc += since(t0);
  };
}

void record_solve(Ctx& c, double t, bool traced) {
  c.run.solve.push(t);
  (traced ? c.run.solve_traced : c.run.solve_untraced).push_back(t);
}

/// kPanelK columns, column-major, cycling through the bare-apply vectors.
std::vector<value_t> pool_panel(const Ctx& c) {
  const std::size_t un = c.apply_pool[0].size();
  std::vector<value_t> p(un * kPanelK);
  for (index_t j = 0; j < kPanelK; ++j) {
    const std::vector<value_t>& v = c.apply_pool[static_cast<std::size_t>(j % kApplyPool)];
    std::copy(v.begin(), v.end(),
              p.begin() + static_cast<std::ptrdiff_t>(un * static_cast<std::size_t>(j)));
  }
  return p;
}

/// The batched path must reproduce the scalar one bitwise. Run once per
/// run, after the timed loop, on the loop's factor: every column of one
/// ilu_apply_panel call over kPanelK columns must equal ilu_apply on that
/// column; on an SPD matrix, every column of one pcg_many call over
/// kPanelSolves seeded right-hand sides must meet the tolerance and equal
/// scalar pcg (same bits, same iterations).
void panel_gate(Ctx& c, const Factorization& f, bool spd) {
  const index_t n = f.n();
  const std::size_t un = static_cast<std::size_t>(n);
  const auto col = [un](std::vector<value_t>& v, index_t j) {
    return std::span<value_t>(v).subspan(un * static_cast<std::size_t>(j), un);
  };
  ++c.run.attempted;
  try {
    std::vector<value_t> r = pool_panel(c), z(r.size()), zs(un);
    ilu_apply_panel(f, r, z, kPanelK, c.ws_ref);
    for (index_t j = 0; j < kPanelK; ++j) {
      ilu_apply(f, col(r, j), zs, c.ws_ref);
      if (!same_bits(zs, col(z, j))) {
        c.run.fail("ilu_apply_panel column != ilu_apply");
        break;
      }
    }
  } catch (const std::exception& e) {
    c.run.fail(std::string("ilu_apply_panel threw: ") + e.what());
  }
  if (!spd) return;

  c.run.attempted += kPanelSolves;
  try {
    std::vector<value_t> b(un * kPanelSolves), x(un * kPanelSolves, 0.0);
    for (index_t j = 0; j < kPanelSolves; ++j) {
      const std::vector<value_t> v = seeded_vector(
          c.args.seed, Stream::kPanelRhs, static_cast<std::uint64_t>(j), n);
      std::copy(v.begin(), v.end(), col(b, j).begin());
    }
    SolverOptions so;
    so.tolerance = kTol;
    WorkspacePool pool;
    const std::vector<SolverResult> res =
        pcg_many(c.a, b, x, kPanelSolves, ilu_panel_preconditioner(f, pool), so);
    const PrecondFn scalar = [&](std::span<const value_t> r,
                                 std::span<value_t> z) {
      ilu_apply(f, r, z, c.ws_ref);
    };
    for (index_t j = 0; j < kPanelSolves; ++j) {
      const SolverResult& rj = res[static_cast<std::size_t>(j)];
      check_solve(c, c.a, col(b, j), col(x, j), rj, "pcg_many column");
      std::vector<value_t> xs(un, 0.0);
      const SolverResult rs = pcg(c.a, col(b, j), xs, scalar, so);
      if (!same_bits(xs, col(x, j)) || rs.iterations != rj.iterations) {
        c.run.fail("pcg_many column != scalar pcg");
      }
    }
  } catch (const std::exception& e) {
    for (index_t j = 0; j < kPanelSolves; ++j) {
      c.run.fail(std::string("pcg_many threw: ") + e.what());
    }
  }
}

// --- workloads -----------------------------------------------------------------

/// poisson3d: factored once; each step refactors with A's own values (the
/// factor must come out bitwise unchanged), solves one seeded right-hand
/// side by ILU(0)-PCG from x0 = 0, then issues bare applies.
void run_poisson3d(Ctx& c, Factorization f0) {
  IluPreconditioner pre(std::move(f0));
  Factorization& f = pre.factorization();
  const std::vector<value_t> ref(f.lu.values().begin(), f.lu.values().end());
  const index_t n = c.a.rows();
  SolverOptions so;
  so.tolerance = kTol;
  c.loop_start = Clock::now();
  for (long step = 0; next_step(c); ++step) {
    SpanLog* log = c.log_for(step);
    SpanLog::Scope s(log, "step", step);
    refactor_op(c, f, c.a, step, ref);

    const std::vector<value_t> b = seeded_vector(c.args.seed, Stream::kSolveRhs,
                                                 static_cast<std::uint64_t>(step), n);
    std::vector<value_t> x(static_cast<std::size_t>(n), 0.0);
    double precond_s = 0.0;
    const PrecondFn m = log ? timed_precond(pre.fn(), precond_s, log, step) : pre.fn();
    ++c.run.attempted;
    try {
      SolverResult res;
      double t;
      {
        SpanLog::Scope ss(log, "solve", step);
        t = timed([&] { res = pcg(c.a, b, x, m, so); });
      }
      record_solve(c, t, log != nullptr);
      if (log) {
        c.run.traced_solve_s += t;
        c.run.traced_precond_s += precond_s;
        c.run.traced_iterations += res.iterations;
        c.run.spmv_calls_modeled += res.iterations + 1;
      }
      check_solve(c, c.a, b, x, res, "pcg");
    } catch (const std::exception& e) {
      c.run.fail(std::string("pcg threw: ") + e.what());
    }
    take_setup_samples(c);
    apply_stream(c, f, step, 20);
  }
  c.run.loop_rss_mb = peak_rss_mb();
  panel_gate(c, f, /*spd=*/true);
}

/// powerflow: a Newton loop. Each step perturbs the values (same pattern,
/// still factorable), refactors the preconditioner's own factor in place,
/// solves by right-preconditioned GMRES, then issues bare applies.
void run_powerflow(Ctx& c, Factorization f0) {
  IluPreconditioner pre(std::move(f0));
  Factorization& f = pre.factorization();
  const index_t n = c.a.rows();
  SolverOptions so;
  so.tolerance = kTol;
  c.loop_start = Clock::now();
  for (long step = 0; next_step(c); ++step) {
    SpanLog* log = c.log_for(step);
    SpanLog::Scope s(log, "step", step);
    perturb_values(c.a, c.args.seed, static_cast<std::uint64_t>(step),
                   kPerturbEps, c.a_cur);
    refactor_op(c, f, c.a_cur, step, {});

    const std::vector<value_t> b = seeded_vector(c.args.seed, Stream::kSolveRhs,
                                                 static_cast<std::uint64_t>(step), n);
    std::vector<value_t> x(static_cast<std::size_t>(n), 0.0);
    ++c.run.attempted;
    try {
      SolverResult res;
      double t;
      if (log) {
        // gmres is gmres_fused over unfused_operator; this is the same
        // operator with the preconditioner and the SpMV timed separately.
        double precond_s = 0.0, spmv_s = 0.0;
        KrylovOperator op;
        op.part = c.part;
        op.precond = timed_precond(pre.fn(), precond_s, log, step);
        op.apply_spmv = [&](std::span<const value_t> r, std::span<value_t> z,
                            std::span<value_t> y) {
          op.precond(r, z);
          SpanLog::Scope sp(log, "spmv", step);
          const Clock::time_point t0 = Clock::now();
          spmv(c.a_cur, *c.part, z, y);
          spmv_s += since(t0);
        };
        {
          SpanLog::Scope ss(log, "solve", step);
          t = timed([&] { res = gmres_fused(c.a_cur, b, x, op, so); });
        }
        c.run.traced_solve_s += t;
        c.run.traced_precond_s += precond_s;
        c.run.traced_spmv_s += spmv_s;
        c.run.traced_iterations += res.iterations;
      } else {
        t = timed([&] { res = gmres(c.a_cur, b, x, pre.fn(), so); });
      }
      record_solve(c, t, log != nullptr);
      check_solve(c, c.a_cur, b, x, res, "gmres");
    } catch (const std::exception& e) {
      c.run.fail(std::string("gmres threw: ") + e.what());
    }
    take_setup_samples(c);
    apply_stream(c, f, step, 10);
  }
  c.run.loop_rss_mb = peak_rss_mb();
  panel_gate(c, f, /*spd=*/false);
}

// --- per-layer probe (traced run only) -----------------------------------------

CsrShape shape_of(const Factorization& f) {
  CsrShape s;
  s.n = f.n();
  s.nnz = f.lu.nnz();
  for (index_t r = 0; r < f.n(); ++r) {
    const index_t d = f.diag_pos[static_cast<std::size_t>(r)];
    s.nnz_l += d - f.lu.row_begin(r);
    s.nnz_u += f.lu.row_end(r) - d;
  }
  return s;
}

CsrShape shape_of(const CsrMatrix& a) {
  CsrShape s;
  s.n = a.rows();
  s.nnz = a.nnz();
  return s;
}

/// Median of `reps` timed calls after one warm-up call.
template <class F>
double med_time(int reps, F&& f) {
  f();
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(timed(f));
  return median(t);
}

void layer_probe(Ctx& c, Factorization& f, std::vector<Metric>& out) {
  const CsrMatrix& a = c.a_cur;
  const std::size_t n = static_cast<std::size_t>(f.n());
  const std::vector<value_t>& r = c.apply_pool[0];
  std::vector<value_t> z(n), y(n);
  const auto add = [&](const std::string& name, double v, const std::string& unit,
                       const std::string& note = "") {
    out.push_back({name, v, unit, note});
  };

  // ilu set-up split: ilu_prepare (symbolic, levels, plan, schedules) and
  // ilu_factor_numeric, interleaved over the repeats.
  std::vector<double> prep, num, whole;
  for (int i = 0; i < 5; ++i) {
    Factorization g;
    const double tp = timed([&] { g = ilu_prepare(a, IluOptions{}); });
    const double tn = timed([&] { ilu_factor_numeric(g); });
    prep.push_back(tp);
    num.push_back(tn);
    whole.push_back(tp + tn);
  }
  add("ilu.prepare_s", median(prep), "s", "ilu_prepare, median of 5");
  add("ilu.numeric_s", median(num), "s", "ilu_factor_numeric, median of 5");
  add("ilu.lu_nnz", static_cast<double>(f.lu.nnz()), "count");

  // Refactor split: scatter_values then the numeric phase.
  std::vector<double> sc, rn;
  for (int i = 0; i < 7; ++i) {
    sc.push_back(timed([&] { scatter_values(f, a); }));
    rn.push_back(timed([&] { ilu_factor_numeric(f); }));
  }
  add("ilu.scatter_s", median(sc), "s", "scatter_values, median of 7");
  add("ilu.refactor_numeric_s", median(rn), "s", "ilu_factor_numeric, median of 7");

  // exec/ region statistics through the public IluOptions::exec_obs sink.
  // The upper/corner split compares instrumented runs with each other: the
  // numeric phase under ExecObs against its upper-stage region.
  obs::ExecObs eo;
  f.opts.exec_obs = &eo;
  SolveWorkspace ws_obs;
  for (int i = 0; i < 20; ++i) ilu_apply(f, r, z, ws_obs);
  double numeric_obs = 0.0;
  constexpr int kObsRefactors = 5;
  for (int i = 0; i < kObsRefactors; ++i) {
    scatter_values(f, a);
    numeric_obs += timed([&] { ilu_factor_numeric(f); }) / kObsRefactors;
  }
  f.opts.exec_obs = nullptr;
  const obs::ExecStats& fw = eo.stats(obs::Region::kForward);
  const obs::ExecStats& bw = eo.stats(obs::Region::kBackward);
  const obs::ExecStats& fac = eo.stats(obs::Region::kFactor);
  const double upper = fac.sweeps ? static_cast<double>(fac.wall_ns) / 1e9 /
                                        static_cast<double>(fac.sweeps)
                                  : 0.0;
  add("ilu.factor_upper_s", upper, "s",
      "upper-stage region wall per numeric phase, instrumented (ExecObs)");
  add("ilu.factor_corner_s", numeric_obs - upper, "s",
      "instrumented numeric phase minus its upper stage: ER/SR stage + corner");
  obs::WaitCounters sync = fw.total;
  sync.merge(bw.total);
  const double busy = static_cast<double>(sync.busy_ns);
  const double sw = static_cast<double>(sync.sync_ns());
  add("exec.levels", static_cast<double>(f.bwd.num_levels), "count",
      "levels of the backward schedule (all rows)");
  add("exec.waits", static_cast<double>(f.fwd.deps_kept + f.bwd.deps_kept), "count",
      "spin-waits kept per apply (fwd + bwd schedules)");
  add("exec.deps_total", static_cast<double>(f.fwd.deps_total + f.bwd.deps_total),
      "count", "cross-thread dependencies before sparsification");
  add("exec.sync_wait_frac", busy + sw > 0 ? sw / (busy + sw) : 0.0, "ratio",
      "sync / (busy + sync), fwd+bwd sweeps (ExecObs)");
  add("exec.stalled_waits",
      fw.sweeps ? static_cast<double>(sync.waits_stalled) /
                      static_cast<double>(fw.sweeps)
                : 0.0,
      "count", "stalled spin-waits per apply (ExecObs)");
  add("graph.rows_per_level_p50", f.plan.level_stats.median_rows, "count");
  add("graph.corner_rows", static_cast<double>(f.plan.num_lower_rows()), "count",
      "rows moved to the lower stage");

  // Apply split, interleaved per repeat: ilu_apply, trsv_forward,
  // trsv_backward (on a permuted-order vector), ilu_apply_serial, spmv.
  const RowPartition& part = *c.part;
  SolveWorkspace ws;
  ws.resize(f.n(), f.plan.num_lower_rows());
  std::vector<value_t> xp(n);
  std::vector<double> ta, tf, tb, tperm, ts, tm;
  ilu_apply(f, r, z, ws);
  ilu_apply_serial(f, r, z, ws);
  for (int i = 0; i < 40; ++i) {
    const double t_apply = timed([&] { ilu_apply(f, r, z, ws); });
    std::copy(r.begin(), r.end(), xp.begin());
    const double t_f = timed([&] { (void)trsv_forward(f, xp, ws); });
    const double t_b = timed([&] { (void)trsv_backward(f, xp, ws); });
    ta.push_back(t_apply);
    tf.push_back(t_f);
    tb.push_back(t_b);
    tperm.push_back(t_apply - t_f - t_b);
    ts.push_back(timed([&] { ilu_apply_serial(f, r, z, ws); }));
    tm.push_back(timed([&] { spmv(a, part, r, y); }));
  }
  const CsrShape fs = shape_of(f);
  const CsrShape as = shape_of(a);
  const double apply_s = median(ta), spmv_s = median(tm);
  add("ilu.fwd_s", median(tf), "s", "trsv_forward, median of 40");
  add("ilu.bwd_s", median(tb), "s", "trsv_backward, median of 40");
  add("ilu.permute_s", median(tperm), "s", "ilu_apply - fwd - bwd, per repeat");
  add("ilu.apply_serial_s", median(ts), "s", "ilu_apply_serial, median of 40");
  add("ilu.apply_over_serial", apply_s / median(ts), "ratio",
      "ilu_apply at the default team / ilu_apply_serial");
  const double apply_gbs = apply_bytes(fs) / apply_s * 1e-9;
  add("ilu.apply_gbs", apply_gbs, "GB/s", "computed bytes / measured ilu_apply");
  add("ilu.sweep_over_spmv", apply_s / spmv_s, "ratio", "ilu_apply / spmv");
  add("sparse.spmv_s", spmv_s, "s", "partitioned spmv, median of 40");
  const double spmv_gbs = spmv_bytes(as) / spmv_s * 1e-9;
  add("sparse.spmv_gbs", spmv_gbs, "GB/s", "computed bytes / measured spmv");

  // Panel apply at k = 16 against the scalar apply.
  {
    const std::vector<value_t> rp = pool_panel(c);
    std::vector<value_t> zp(rp.size());
    const double tp = med_time(15, [&] { ilu_apply_panel(f, rp, zp, kPanelK, ws); });
    add("ilu.panel_s_per_rhs", tp / kPanelK, "s", "ilu_apply_panel k=16, per column");
    add("ilu.panel_over_scalar", tp / kPanelK / apply_s, "ratio",
        "per-column panel apply / ilu_apply");
    add("ilu.panel_gbs",
        apply_panel_bytes(fs, static_cast<int>(kPanelK), static_cast<int>(batch_rhs_of(f))) /
            tp * 1e-9,
        "GB/s", "computed bytes / measured ilu_apply_panel");
  }
  c.run.traced_spmv_s += spmv_s * static_cast<double>(c.run.spmv_calls_modeled);

  // Solver attribution over the traced solves.
  const double wall = c.run.traced_solve_s;
  add("solver.iterations", median(c.run.iterations), "count",
      "median iterations per right-hand side");
  add("solver.rel_residual", median(c.run.rel_residual), "ratio",
      "median recomputed true relative residual");
  add("solver.precond_frac", wall > 0 ? c.run.traced_precond_s / wall : 0.0, "ratio",
      "preconditioner time / Krylov wall (timed PrecondFn)");
  add("solver.spmv_frac", wall > 0 ? c.run.traced_spmv_s / wall : 0.0, "ratio",
      c.run.spmv_calls_modeled == 0
          ? "SpMV time / Krylov wall (timed operator)"
          : "SpMV calls x probe SpMV time / Krylov wall (modelled)");
  add("sparse.vecops_s",
      c.run.traced_iterations > 0
          ? (wall - c.run.traced_precond_s - c.run.traced_spmv_s) /
                static_cast<double>(c.run.traced_iterations)
          : 0.0,
      "s", "(Krylov wall - precond - SpMV) per iteration");

  // Autotuner on fresh copies of the factor (opt-in path, not end to end).
  {
    std::vector<double> tt, ratio;
    std::set<std::string> picks;
    for (int i = 0; i < 3; ++i) {
      Factorization g = f;
      tune::TuneReport rep;
      tt.push_back(timed([&] { rep = tune::autotune(g); }));
      picks.insert(rep.chosen.name());
      SolveWorkspace wt;
      const double tuned = med_time(15, [&] { ilu_apply(g, r, z, wt); });
      const double serial = med_time(15, [&] { ilu_apply_serial(g, r, z, wt); });
      ratio.push_back(tuned / serial);
    }
    add("tune.s", median(tt), "s", "tune::autotune wall, median of 3");
    add("tune.pick_over_serial", median(ratio), "ratio",
        "ilu_apply after autotune / ilu_apply_serial");
    std::string names;
    for (const std::string& p : picks) names += (names.empty() ? "" : ",") + p;
    add("tune.distinct_picks", static_cast<double>(picks.size()), "count",
        "winners over 3 tunes: " + names);
  }

  // T=1 pass: the serial baseline of every parallel/serial ratio.
  {
    const int team = omp_get_max_threads();
    omp_set_num_threads(1);
    SolveWorkspace w1;
    const RowPartition part1 = RowPartition::build(a, 1);
    const double apply1 = med_time(15, [&] { ilu_apply(f, r, z, w1); });
    const double spmv1 = med_time(15, [&] { spmv(a, part1, r, y); });
    const double factor1 = med_time(3, [&] { (void)ilu_factor(a, IluOptions{}); });
    omp_set_num_threads(team);
    add("ilu.apply_over_t1", apply_s / apply1, "ratio", "ilu_apply default team / T=1");
    add("sparse.spmv_over_t1", spmv_s / spmv1, "ratio", "spmv default team / T=1");
    add("ilu.factor_over_t1", median(whole) / factor1, "ratio",
        "ilu_factor default team / T=1");
  }

  // Tracing overhead: traced vs untraced steps of the same loop.
  add("obs.overhead_frac",
      c.run.solve_traced.empty() || c.run.solve_untraced.empty()
          ? 0.0
          : median(c.run.solve_traced) / median(c.run.solve_untraced) - 1.0,
      "ratio", "traced solve_s.p50 / untraced - 1");

  // Host bandwidth last: the probe's arrays dwarf the workload.
  const TriadResult tr = triad_probe();
  std::ostringstream tn;
  tn << "STREAM triad, 3 arrays of " << (tr.array_bytes >> 20) << " MiB each, LLC "
     << (tr.llc >> 20) << " MiB (measured)";
  add("hw.triad_gbs", tr.gbs, "GB/s", tn.str());
  add("ilu.apply_roof_frac", tr.gbs > 0 ? apply_gbs / tr.gbs : 0.0, "ratio",
      "computed apply GB/s / triad; working set is L3-resident, may exceed 1");
  add("sparse.spmv_roof_frac", tr.gbs > 0 ? spmv_gbs / tr.gbs : 0.0, "ratio",
      "computed spmv GB/s / triad; working set is L3-resident, may exceed 1");
}

// --- output ----------------------------------------------------------------------

/// Median and tail of `x`: over its clean samples when enough exist (see
/// Samples::reported), else over all of them; the note says which.
void add_timing(std::vector<Metric>& out, const std::string& name,
                const Samples& x, std::size_t min_clean) {
  const std::vector<double>& v = x.reported(min_clean);
  const std::string from = &v == &x.clean ? " clean" : " (all: too few clean)";
  std::ostringstream p50, tl;
  p50 << "median of " << v.size() << from << " samples";
  out.push_back({name + ".p50", median(v), "s", p50.str()});
  if (name == "setup_s") return;
  const Tail t = tail(v);
  tl << "p" << t.pct << " of " << t.n << from << " samples";
  // Tails are printed, not gated. On a virtualized host the four spinning
  // threads lose the CPU to the hypervisor in bursts, and the tails follow
  // those bursts more than the code: across runs of the same code their
  // spread was 12-140 %, beyond any bound a regression gate can use.
  out.push_back({name + ".tail", t.value, "s", tl.str(), false});
}

std::string fingerprint(const Args& args) {
  std::ostringstream os;
  os << "{\"cpu\": \"" << json_escape(cpu_model()) << "\", \"nproc\": "
     << omp_get_num_procs() << ", \"caches\": [";
  bool first = true;
  for (const CacheLevel& cl : caches()) {
    os << (first ? "" : ", ") << "{\"level\": " << cl.level << ", \"type\": \""
       << json_escape(cl.type) << "\", \"bytes\": " << cl.bytes << "}";
    first = false;
  }
  os << "], \"compiler\": \"" << json_escape(__VERSION__) << "\", \"flags\": \""
     << json_escape(PERFBENCH_CXX_FLAGS)
     << " (library adds -ffp-contract=off)\", \"source\": \""
     << json_escape(args.source_id) << "\", \"omp_env\": " << omp_env_json()
     << ", \"threads\": " << omp_get_max_threads() << ", \"seed\": " << args.seed
     << ", \"workload\": \"" << json_escape(args.workload)
     << "\", \"trace\": " << (args.trace ? 1 : 0) << "}";
  return os.str();
}

/// Metric lines, then an `info:` JSON line with what is printed but not in
/// the result, then the JSON result as the last line.
void print_result(const Run& run, const std::vector<Metric>& metrics,
                  double steal) {
  for (const Metric& m : metrics) {
    std::printf("%-26s %-14.6g %-6s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str(), m.in_result ? "" : " [not gated]");
  }
  const double ff = static_cast<double>(run.failed) /
                    static_cast<double>(std::max<long>(1, run.attempted));
  std::printf("fail_frac %.6g (%ld of %ld ops), host steal %.4g during the loop\n",
              ff, run.failed, run.attempted, steal);
  std::printf("steps %ld, of which %ld clean (steal <= %g)\n", run.steps - 1,
              run.clean_steps, kStealMax);
  std::printf("info: {\"fail_frac\": %.17g, \"steal_frac\": %.17g, \"steps\": %ld, "
              "\"clean_steps\": %ld",
              ff, steal, run.steps - 1, run.clean_steps);
  for (const Metric& m : metrics) {
    if (!m.in_result) std::printf(", \"%s\": %.17g", m.name.c_str(), m.value);
  }
  std::printf("}\n{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              run.failed == 0 ? "true" : "false", run.attempted, run.failed);
  const char* sep = "";
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

void print_self_times(const SpanLog& log) {
  std::printf("span self times (traced steps):\n");
  for (const auto& [name, t] : log.totals()) {
    std::printf("  %-10s count %-7ld total %-12.6g self %-12.6g s\n", name.c_str(),
                t.count, t.total_s, t.self_s);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload poisson3d|powerflow "
               "--seed N --seconds S --trace 0|1 [--source-id ID] [--trace-dir DIR]\n");
  return 2;
}

int run_main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::stoull(v);
    else if (k == "--seconds") args.seconds = std::stod(v);
    else if (k == "--trace") args.trace = v == "1";
    else if (k == "--source-id") args.source_id = v;
    else if (k == "--trace-dir") args.trace_dir = v;
    else return usage();
  }
  if (args.workload != "poisson3d" && args.workload != "powerflow") return usage();

  Ctx c;
  c.args = args;
  c.a = workload_matrix(args.workload);
  c.a_cur = c.a;
  c.part = std::make_shared<const RowPartition>(RowPartition::build(c.a));
  for (int j = 0; j < kApplyPool; ++j) {
    c.apply_pool.push_back(seeded_vector(args.seed, Stream::kApplyVec,
                                         static_cast<std::uint64_t>(j), c.a.rows()));
  }
  std::printf("fingerprint: %s\n", fingerprint(args).c_str());
  std::printf("workload %s: n %d, nnz %d, threads %d, seed %llu, %g s\n",
              args.workload.c_str(), c.a.rows(), c.a.nnz(), omp_get_max_threads(),
              static_cast<unsigned long long>(args.seed), args.seconds);
  std::fflush(stdout);

  Factorization f = initial_factor(c);
  const CpuTicks ticks0 = cpu_ticks();
  Factorization probe_copy;  // traced run: the probe works on its own factor
  if (args.trace) probe_copy = f;
  if (args.workload == "poisson3d") run_poisson3d(c, std::move(f));
  else run_powerflow(c, std::move(f));
  const double steal = steal_frac(ticks0, cpu_ticks());

  std::vector<Metric> metrics;
  if (!args.trace) {
    add_timing(metrics, "setup_s", c.run.setup, 8);
    metrics.back().name = "setup_s";  // a single median, no .p50 suffix
    add_timing(metrics, "apply_s", c.run.apply, 100);
    add_timing(metrics, "solve_s", c.run.solve, 20);
    add_timing(metrics, "refactor_s", c.run.refactor, 20);
    metrics.push_back({"peak_rss_mb", c.run.loop_rss_mb, "MB",
                       "getrusage high-water at the end of the timed loop"});
  } else {
    ilu_refactor(probe_copy, c.a_cur);  // the matrix the loop ended on
    layer_probe(c, probe_copy, metrics);
    metrics.push_back({"hw.steal_frac", steal, "ratio",
                       "CPU time stolen by the hypervisor during the loop"});
    print_self_times(c.log);
    std::filesystem::create_directories(args.trace_dir);
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    if (c.log.write_jsonl(path)) std::printf("spans written to %s\n", path.c_str());
    metrics.push_back({"fail_frac",
                       static_cast<double>(c.run.failed) /
                           static_cast<double>(std::max<long>(1, c.run.attempted)),
                       "ratio", "failed / attempted ops"});
  }
  print_result(c.run, metrics, steal);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
