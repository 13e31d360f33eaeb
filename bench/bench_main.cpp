// Benchmark harness: times factor / refactor (persistent scatter map vs the
// seed binary-search scatter) / triangular solve (P2P vs barrier CSR-LS —
// the paper's §VI apples-to-apples comparison) / SpMV / AMG-PCG vs
// ILU-PCG across the synthetic suite and a sweep of thread counts, and
// emits a BENCH_*.json so the perf trajectory of the repo is measurable PR
// over PR. Schedule statistics (levels, dependency counts before/after
// sparsification, items per thread) and the AMG aggregate-size histogram
// ride along in the JSON.
//
// The sweep pins retarget_oversubscribed = false: each thread-count row must
// measure the PLANNED team, not whatever the autotune clamp would re-plan it
// to on a smaller machine (otherwise every t > cores row measures the same
// retargeted schedule).
//
//   javelin_bench [--scale S] [--threads 1,2,4] [--repeats N] [--fill K]
//                 [--tier small|large] [--streams 1,4,16,64]
//                 [--matrices name1,name2] [--matrix file.mtx] [--out PATH]
//                 [--trace trace.json] [--verify]
//
// --verify runs the static schedule verifier (verify/) on every factor's
// forward and backward schedule at every thread count and emits its
// happens-before coverage accounting into the JSON (schema v5): how many
// cross-thread dependencies are enforced by a DIRECT spin-wait vs covered
// TRANSITIVELY through waits the sparsifier kept — the paper's pruning,
// quantified. Any verifier diagnostic fails the run (exit 1), same as a
// parity failure.
//
// --repeats N (alias: --reps) runs each timed kernel N measured times after
// one warmup-discard run and reports BOTH the minimum and the median — the
// min is the scalability number, the min/median gap is the noise floor of
// the measurement. --trace records one instrumented pass per matrix (at the
// last thread count) into a Chrome trace_event JSON: per-thread per-level
// sweep spans, spin-stall and barrier events, Krylov iteration spans
// (chrome://tracing or https://ui.perfetto.dev).
//
// --matrices also accepts laplacian3d_<s> / laplacian2d_<s> / aniso3d_<s> /
// jump3d_<s> (s×s×s or s×s grids at full scale); --matrix (repeatable)
// benches real SuiteSparse .mtx files alongside the synthetic analogs.
//
// --tier large switches the default matrix list to the production-scale set
// (the synthetic suite plus 128³ ≈ 2.1M-row 3-D problems). Matrices above
// the trim threshold skip the Krylov/AMG races (hours at this scale on one
// node) but keep the latency table, the schedule statistics and the batched
// many-RHS throughput sweep: solves/sec of solve_many at k concurrent
// right-hand sides per thread count, each point bitwise-checked against k
// independent scalar applies.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "javelin/amg/preconditioner.hpp"
#include "javelin/gen/generators.hpp"
#include "javelin/ilu/batch.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/obs/exec_obs.hpp"
#include "javelin/solver/krylov.hpp"
#include "javelin/solver/robust.hpp"
#include "javelin/sparse/io.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/sparse/spmv.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/support/timer.hpp"
#include "javelin/tune/tune.hpp"
#include "javelin/verify/verify.hpp"

using namespace javelin;

namespace {

/// Matrices at least this large skip the Krylov/AMG races (the latency
/// table, schedule statistics and the batched throughput sweep still run).
constexpr index_t kTrimRows = 500000;

struct BenchConfig {
  double scale = 0.02;
  std::vector<int> threads = {1, 2, 4, 8};
  int reps = 3;
  int fill = 0;
  std::string tier = "small";
  /// Concurrent right-hand-side counts of the throughput sweep.
  std::vector<index_t> streams = {1, 4, 16, 64};
  std::vector<std::string> matrices;      // empty = tier default list
  std::vector<std::string> matrix_files;  // Matrix-Market paths (--matrix)
  std::string out = "BENCH_javelin.json";
  std::string trace;  // Chrome trace output path; empty = tracing off
  /// Run the static schedule verifier on every factor's fwd/bwd schedule and
  /// emit its coverage statistics (direct vs transitive — the sparsification
  /// quantified) into the JSON. A verification failure fails the run.
  bool verify = false;
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

BenchConfig parse_args(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scale") {
      cfg.scale = std::atof(next().c_str());
    } else if (arg == "--threads") {
      cfg.threads.clear();
      for (const std::string& t : split_csv(next())) {
        cfg.threads.push_back(std::atoi(t.c_str()));
      }
    } else if (arg == "--reps" || arg == "--repeats") {
      cfg.reps = std::max(1, std::atoi(next().c_str()));
    } else if (arg == "--fill") {
      cfg.fill = std::atoi(next().c_str());
    } else if (arg == "--tier") {
      cfg.tier = next();
      if (cfg.tier != "small" && cfg.tier != "large") {
        std::fprintf(stderr, "--tier must be small or large\n");
        std::exit(2);
      }
    } else if (arg == "--streams") {
      cfg.streams.clear();
      for (const std::string& s : split_csv(next())) {
        cfg.streams.push_back(static_cast<index_t>(std::atoi(s.c_str())));
      }
    } else if (arg == "--matrices") {
      cfg.matrices = split_csv(next());
    } else if (arg == "--matrix") {
      cfg.matrix_files.push_back(next());
    } else if (arg == "--out") {
      cfg.out = next();
    } else if (arg == "--trace") {
      cfg.trace = next();
    } else if (arg == "--verify") {
      cfg.verify = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return cfg;
}

/// Schedule-shape statistics of one direction at one thread count (P2P and
/// all-barrier tags share the structure; P2P synchronizes on `waits`
/// spin-waits per sweep, barrier CSR-LS on `levels` barriers).
struct SchedStats {
  index_t levels = 0;
  index_t deps_total = 0;  // cross-thread dependencies before pruning
  index_t waits = 0;       // spin-waits kept after sparsification
  index_t items = 0;
  index_t max_items_per_thread = 0;
  // Rows-per-level shape — the critical-path statistic of the level DAG:
  // `levels` is the critical-path LENGTH (barriers per CSR-LS sweep), these
  // are how much parallel work each of its steps carries.
  index_t rows_per_level_min = 0;
  index_t rows_per_level_med = 0;
  index_t rows_per_level_max = 0;
  double rows_per_level_mean = 0;
  // Fraction of rows living in levels narrower than the plan's α
  // (plan.min_level_rows) — the share of the sweep the default regime rule
  // serializes once it reaches 10 %.
  double small_level_row_frac = 0;
  index_t small_level_rows = 0;  // the threshold the fraction used
  std::vector<std::uint64_t> rows_per_level_hist;  // log2 buckets, trimmed
};

SchedStats sched_stats(const ExecSchedule& s, index_t min_level_rows) {
  SchedStats st;
  st.levels = s.num_levels;
  st.deps_total = s.deps_total;
  st.waits = s.deps_kept;
  st.items = s.num_items();
  st.max_items_per_thread = s.max_items_per_thread();
  st.rows_per_level_mean = s.mean_rows_per_level();
  st.small_level_rows = min_level_rows;
  st.small_level_row_frac = s.small_level_row_frac(st.small_level_rows);
  if (s.num_levels > 0 &&
      s.level_ptr.size() > static_cast<std::size_t>(s.num_levels)) {
    std::vector<index_t> rows(static_cast<std::size_t>(s.num_levels));
    obs::FixedHistogram h;
    for (index_t l = 0; l < s.num_levels; ++l) {
      const index_t r = s.level_ptr[static_cast<std::size_t>(l) + 1] -
                        s.level_ptr[static_cast<std::size_t>(l)];
      rows[static_cast<std::size_t>(l)] = r;
      h.record(static_cast<std::uint64_t>(r));
    }
    std::sort(rows.begin(), rows.end());
    st.rows_per_level_min = rows.front();
    st.rows_per_level_med = rows[rows.size() / 2];
    st.rows_per_level_max = rows.back();
    st.rows_per_level_hist.resize(static_cast<std::size_t>(h.used_buckets()));
    for (std::size_t b = 0; b < st.rows_per_level_hist.size(); ++b) {
      st.rows_per_level_hist[b] = h.count(static_cast<int>(b));
    }
  }
  return st;
}

/// Verifier result of one schedule at one thread count (--verify only).
/// The direct/transitive split is the payoff statistic: transitive coverage
/// is exactly the synchronization the paper's sparsification deleted without
/// losing safety.
struct VerifyBlock {
  bool present = false;  ///< --verify ran on this schedule
  bool ok = false;
  verify::VerifyStats stats;
};

struct ThreadTimings {
  int threads = 0;
  double factor_s = 0;
  double refactor_s = 0;           // persistent scatter map path
  double scatter_map_s = 0;        // scatter alone, map path
  double scatter_searched_s = 0;   // scatter alone, seed path
  double solve_s = 0;              // one ilu_apply, default (P2P) tags
  double solve_ls_s = 0;           // one ilu_apply, all levels kBarrier
  double spmv_s = 0;               // one partitioned spmv
  // Medians of the same measured repetitions (min above is the scalability
  // number; median - min is the run-to-run noise the min filtered out).
  double factor_med_s = 0;
  double refactor_med_s = 0;
  double solve_med_s = 0;
  double solve_ls_med_s = 0;
  double spmv_med_s = 0;
  // Full ILU-PCG race P2P vs CSR-LS (symmetric entries; -1 = not run):
  double ilu_pcg_ls_s = -1;
  SchedStats fwd, bwd;             // schedule shape at this thread count
  VerifyBlock verify_fwd, verify_bwd;  // --verify results (absent otherwise)
  // Fused vs unfused Krylov inner loop: wall time per iteration of the same
  // restructured driver consuming ilu_apply_spmv (fused) vs apply-then-spmv
  // as two kernels (unfused). -1 = not run (pcg_* on symmetric entries only).
  double pcg_fused_iter_s = -1;
  double pcg_unfused_iter_s = -1;
  double gmres_fused_iter_s = -1;
  double gmres_unfused_iter_s = -1;
  // AMG vs ILU comparison (symmetric-pattern entries only; -1 = not run):
  double amg_setup_s = -1;         // hierarchy construction
  double amg_cycle_s = -1;         // one V-cycle apply
  double amg_pcg_s = -1;           // full AMG-PCG solve to 1e-8
  double ilu_pcg_s = -1;           // full ILU-PCG solve to 1e-8
};

/// One point of the batched-serving throughput sweep: solve_many over k
/// concurrent right-hand sides, timed as one serving batch.
struct StreamPoint {
  index_t k = 0;
  double batch_s = 0;        ///< wall time of one solve_many(k) batch
  double solves_per_s = 0;   ///< k / batch_s
  bool batched_parity = true;  ///< bitwise equal to k independent applies
};

/// Throughput rows run under the SERVING configuration (retarget on): a
/// planned team that oversubscribes the machine re-plans to the core count,
/// which is what a deployed many-RHS server would do.
struct ThroughputRow {
  int threads = 0;
  double solve_1_s = 0;  ///< single-RHS scalar apply in the same config
  std::vector<StreamPoint> points;
};

/// Stall telemetry of one instrumented sweep region (schema-v4
/// `stall_profile`): where a sweep's wall time went — computing rows vs
/// spin-stalled on producers (P2P) vs crossing barriers (CSR-LS).
struct RegionProfile {
  bool present = false;
  std::uint64_t sweeps = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t critical_path_ns = 0;
  double occupancy = 0;
  double sync_wait_frac = 0;
  obs::WaitCounters total;
  /// Per-level wait / (busy + wait). Averaged into at most 256 bins for
  /// deep level structures (binned = true) to bound the JSON size.
  std::vector<double> level_wait_frac;
  bool binned = false;
};

constexpr std::size_t kMaxProfileLevels = 256;

RegionProfile region_profile(const obs::ExecStats& st) {
  RegionProfile p;
  if (st.sweeps == 0) return p;
  p.present = true;
  p.sweeps = st.sweeps;
  p.wall_ns = st.wall_ns;
  p.critical_path_ns = st.critical_path_ns;
  p.occupancy = st.occupancy();
  p.sync_wait_frac = st.sync_wait_frac();
  p.total = st.total;
  std::vector<double> lw = st.level_wait_frac();
  if (lw.size() > kMaxProfileLevels) {
    p.binned = true;
    std::vector<double> binned(kMaxProfileLevels, 0.0);
    std::vector<int> counts(kMaxProfileLevels, 0);
    for (std::size_t l = 0; l < lw.size(); ++l) {
      const std::size_t b = l * kMaxProfileLevels / lw.size();
      binned[b] += lw[l];
      counts[b] += 1;
    }
    for (std::size_t b = 0; b < binned.size(); ++b) {
      if (counts[b] > 0) binned[b] /= counts[b];
    }
    p.level_wait_frac = std::move(binned);
  } else {
    p.level_wait_frac = std::move(lw);
  }
  return p;
}

/// Per-matrix stall telemetry: the forward and backward sweep regions of one
/// instrumented ilu_apply pass per sweep kind (default tags, all-barrier
/// tags). threads == 0 means not collected
/// (robust-only rows).
struct StallProfile {
  int threads = 0;
  int reps = 0;
  RegionProfile p2p_fwd, p2p_bwd;
  RegionProfile ls_fwd, ls_bwd;
};

/// Factor-time autotuner decision on one matrix (schema-v6 `autotune`
/// block + the console `auto` row): the wall-clock candidate grid, the
/// pinned winner re-measured on the real solve path, and the bitwise parity
/// of the tuned sweep against the serial reference.
struct AutotuneBlock {
  bool present = false;
  /// --verify runs: candidates ranked by the deterministic cost model (the
  /// grid's `seconds` are dimensionless scores and ratio_vs_best_fixed is
  /// withheld), so the decision replays bit-for-bit.
  bool deterministic = false;
  int threads = 0;  ///< widest sweep team — the grid's cap and OMP setting
  std::string chosen;
  int chosen_threads = 0;
  bool chosen_hybrid = false;
  index_t chosen_chunk_rows = 0;
  bool hybrid_applied = false;
  double auto_solve_s = 0;   ///< pinned winner, re-measured (min of reps)
  double serial_s = 0;       ///< the grid's serial candidate
  std::string best_fixed;    ///< cheapest non-hybrid candidate (incl. serial)
  double best_fixed_s = 0;
  double ratio_vs_serial = -1;      ///< auto_solve_s / serial_s
  double ratio_vs_best_fixed = -1;  ///< auto_solve_s / best_fixed_s
  bool parity = true;  ///< tuned ilu_apply bitwise == serial reference
  struct Candidate {
    std::string name;
    double seconds = 0;
  };
  std::vector<Candidate> candidates;  ///< grid in evaluation order
};

struct MatrixReport {
  std::string name;
  index_t n = 0;
  index_t nnz = 0;
  index_t levels = 0;
  index_t rows_moved = 0;
  std::string method;
  /// Preordering the default rule picked (TwoStagePlan::ordering), the
  /// level counts it compared and the ordering phase's wall time.
  std::string ordering;
  index_t natural_levels = 0;
  index_t ordered_levels = 0;
  double order_s = 0;
  int pcg_iterations = -1;   // ILU-Krylov on the 1st thread count (P2P)
  int pcg_iterations_ls = -1;  // same solve with every level kBarrier
  int amg_iterations = -1;   // AMG-PCG (iteration counts are thread-invariant)
  int amg_levels = 0;
  double amg_operator_complexity = 0;
  /// Finest-level aggregate-size histogram: entry k = number of aggregates
  /// with k+1 fine rows (aggregation-quality ROADMAP metric).
  std::vector<index_t> amg_aggregate_hist;
  /// Fused and unfused solver trajectories bitwise-identical, at every
  /// thread count and against the first thread count's solution.
  bool fused_parity = true;
  /// P2P and all-barrier sweeps bitwise-identical (ilu_apply output and full
  /// ILU-Krylov solution) at every thread count.
  bool backend_parity = true;
  /// Every throughput point bitwise equal to k independent scalar applies
  /// (AND of the per-point flags, for quick regression grepping).
  bool batched_parity = true;
  /// Static schedule verification (--verify): -1 = not run, 1 = every
  /// fwd/bwd schedule at every thread count verified clean, 0 = at least one
  /// diagnostic. Part of the exit gate alongside the parity flags.
  int schedule_verified = -1;
  /// Krylov/AMG races skipped (matrix at or above the trim threshold).
  bool trimmed = false;
  /// Process peak RSS after this matrix finished, from getrusage ru_maxrss.
  /// A process high-water mark: monotone over the run, so the first matrix
  /// that spikes it owns the spike.
  double peak_rss_mb = 0;
  // Breakdown/retry statistics of one solve_robust run against a consistent
  // rhs: how many ladder rungs ran, the winning shift and preconditioner
  // level, and the failure cause when nothing converged. -1 attempts = not
  // run (trimmed matrices).
  int robust_attempts = -1;
  double robust_shift = 0;
  std::string robust_level = "ilu";
  std::string robust_cause = "none";
  bool robust_converged = false;
  /// Degenerate (group D) fixture: only the robust pipeline ran — the
  /// timing sweep requires a factorable matrix, and the parity gate skips
  /// these rows.
  bool robust_only = false;
  std::vector<ThreadTimings> timings;
  std::vector<ThroughputRow> throughput;
  StallProfile stall;  ///< instrumented pass at the last thread count
  AutotuneBlock autotune;  ///< tuner decision at the widest thread count
};

double peak_rss_mb_now() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::vector<value_t> random_vector(index_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<value_t> dist(-1.0, 1.0);
  std::vector<value_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = dist(rng);
  return v;
}

/// One solve_robust run against a consistent rhs (b = A·x_true): records the
/// breakdown/retry trail into the report. Healthy matrices cost one Krylov
/// solve (attempts == 1, shift == 0); degenerate ones walk the ladder.
SolveReport run_robust(MatrixReport& rep, const CsrMatrix& a) {
  const auto xt = random_vector(a.rows(), 0x5EED);
  std::vector<value_t> b(xt.size());
  spmv(a, xt, b);
  std::vector<value_t> x(xt.size(), 0.0);
  RobustOptions ropts;
  ropts.solver.max_iterations = 2000;
  SolveReport sr = solve_robust(a, b, x, ropts);
  rep.robust_attempts = static_cast<int>(sr.attempts.size());
  rep.robust_shift = sr.shift_used;
  rep.robust_level = to_string(sr.level_used);
  rep.robust_cause = to_string(sr.cause);
  rep.robust_converged = sr.converged;
  return sr;
}

/// Instrumented pass at one thread count: ilu_apply under each sweep kind with
/// an ExecObs attached (fresh factor copies — the timing sweep above must
/// never run instrumented instantiations). Doubles as the traced pass when
/// --trace is set: the session is enabled around it, so the sweep spans,
/// stall/barrier events and — via a short instrumented Krylov run — the
/// per-iteration spans all land in the trace buffers.
void collect_stall_profile(MatrixReport& rep, const Factorization& f,
                           const CsrMatrix& a, bool sym, int t,
                           const BenchConfig& cfg) {
  const bool tracing = !cfg.trace.empty();
  if (tracing) obs::TraceSession::instance().enable();

  rep.stall.threads = t;
  rep.stall.reps = cfg.reps;
  const auto r = random_vector(a.rows(), 0x0B5);
  std::vector<value_t> z(r.size());
  for (const LevelRegime be : {LevelRegime::kP2P, LevelRegime::kBarrier}) {
    // The p2p profile keeps the factor's default policy (narrow levels
    // serialized on deep matrices): the schedules the timings and the
    // --verify blocks describe.
    Factorization fb = f;
    if (be == LevelRegime::kBarrier) tag_all_levels(fb, be);
    obs::ExecObs eo;
    fb.opts.exec_obs = &eo;
    SolveWorkspace ws;
    ilu_apply(fb, r, z, ws);  // warm (workspace + retarget caches)
    eo.reset();
    for (int i = 0; i < cfg.reps; ++i) ilu_apply(fb, r, z, ws);
    RegionProfile fwd = region_profile(eo.stats(obs::Region::kForward));
    RegionProfile bwd = region_profile(eo.stats(obs::Region::kBackward));
    if (be == LevelRegime::kP2P) {
      rep.stall.p2p_fwd = std::move(fwd);
      rep.stall.p2p_bwd = std::move(bwd);
    } else {
      rep.stall.ls_fwd = std::move(fwd);
      rep.stall.ls_bwd = std::move(bwd);
    }
  }

  if (tracing) {
    // Krylov iteration spans: a short instrumented solve (tolerance 0 runs
    // the full budget, so the trace gets a fixed number of iteration spans
    // each wrapping the fwd/bwd sweep spans of its preconditioner apply).
    Factorization fk = f;
    obs::ExecObs eo;
    fk.opts.exec_obs = &eo;
    SolverOptions so;
    so.max_iterations = 5;
    so.tolerance = 0;
    IluPreconditioner m(std::move(fk));
    std::vector<value_t> x(r.size(), 0);
    if (sym) {
      pcg(a, r, x, m.fn(), so);
    } else {
      gmres(a, r, x, m.fn(), so);
    }
    obs::TraceSession::instance().disable();
  }
}

/// Factor-time autotuning at the widest sweep team: fresh factor, wall-clock
/// grid over sync × team × blocking granule × hybrid regime mix (the
/// serial candidate is the grid's anchor), winner pinned into the factor and
/// re-measured on the real solve path. The tuned sweep is bitwise-checked
/// against the serial reference — `autotune_parity` joins the exit gate, so
/// a policy that changed results fails the run like any other parity break.
void run_autotune(MatrixReport& rep, const CsrMatrix& a,
                  const BenchConfig& cfg) {
  const int t_max =
      *std::max_element(cfg.threads.begin(), cfg.threads.end());
  ThreadCountGuard guard(t_max);
  IluOptions opts;
  opts.num_threads = t_max;
  opts.fill_level = cfg.fill;
  opts.retarget_oversubscribed = false;
  // --verify switches the tuner to deterministic-policy mode: the injected
  // cost model ranks candidates from the schedule shape alone (no clocks),
  // so the decision — and therefore the whole JSON — is reproducible, and
  // every candidate's schedules pass the static verifier as they are tried.
  opts.verify_schedules = cfg.verify;
  Factorization f = ilu_factor(a, opts);

  tune::TuneOptions topt;
  topt.reps = cfg.reps;
  topt.max_threads = t_max;
  topt.chunk_candidates = {16, 64};
  if (cfg.verify) topt.cost_model = tune::deterministic_cost_model();
  const tune::TuneReport tr = tune::autotune(f, topt);

  AutotuneBlock& ab = rep.autotune;
  ab.present = true;
  ab.deterministic = cfg.verify;
  ab.threads = t_max;
  ab.chosen = tr.chosen.name();
  ab.chosen_threads = tr.chosen.threads;
  ab.chosen_hybrid = tr.chosen.sync == tune::TuneSync::kHybrid;
  ab.chosen_chunk_rows = tr.chosen.chunk_rows;
  ab.hybrid_applied = tr.hybrid_applied;
  ab.serial_s = tr.serial_seconds;
  for (const tune::TuneMeasurement& m : tr.measured) {
    ab.candidates.push_back({m.cand.name(), m.seconds});
    if (m.cand.sync != tune::TuneSync::kHybrid &&
        (ab.best_fixed.empty() || m.seconds < ab.best_fixed_s)) {
      ab.best_fixed = m.cand.name();
      ab.best_fixed_s = m.seconds;
    }
  }

  const auto r = random_vector(a.rows(), 0xA07);
  std::vector<value_t> z(r.size()), z_ref(r.size());
  SolveWorkspace ws;
  ilu_apply(f, r, z, ws);  // warm the tuned policy's caches
  ab.auto_solve_s =
      min_time_seconds([&] { ilu_apply(f, r, z, ws); }, cfg.reps, 1);
  ilu_apply_serial(f, r, z_ref, ws);
  ab.parity = z == z_ref;
  // In deterministic-policy mode the grid numbers are model scores, not
  // seconds — re-measure the serial wall time for a real ratio, and leave
  // the best-fixed ratio to wall-clock runs (the CI autotune gate).
  if (ab.deterministic) {
    ab.serial_s = min_time_seconds(
        [&] { ilu_apply_serial(f, r, z_ref, ws); }, cfg.reps, 1);
  }
  ab.ratio_vs_serial = ab.serial_s > 0 ? ab.auto_solve_s / ab.serial_s : -1;
  if (!ab.deterministic) {
    ab.ratio_vs_best_fixed =
        ab.best_fixed_s > 0 ? ab.auto_solve_s / ab.best_fixed_s : -1;
  }

  std::printf(
      "  %-18s auto  chose %s  solve %.5fs  serial %.5fs (%.2fx)  best fixed "
      "%s %s%s\n",
      rep.name.c_str(), ab.chosen.c_str(), ab.auto_solve_s, ab.serial_s,
      ab.ratio_vs_serial, ab.best_fixed.c_str(),
      ab.hybrid_applied ? " [hybrid]" : "",
      ab.parity ? "" : " PARITY-FAIL");
}

/// Degenerate fixtures run ONLY the robust pipeline: the timing sweep
/// factors with the throwing entry point, which these matrices defeat by
/// construction.
MatrixReport bench_degenerate(const gen::SuiteEntry& e) {
  MatrixReport rep;
  rep.name = e.name;
  rep.n = e.matrix.rows();
  rep.nnz = e.matrix.nnz();
  rep.robust_only = true;
  const SolveReport sr = run_robust(rep, e.matrix);
  rep.peak_rss_mb = peak_rss_mb_now();
  // The full per-attempt ladder trail: these fixtures exist to exercise the
  // breakdown path, so what each rung did IS the result worth reading.
  std::printf("  %-18s robust: %s\n", e.name.c_str(), sr.summary().c_str());
  return rep;
}

MatrixReport bench_matrix(const gen::SuiteEntry& e, const BenchConfig& cfg) {
  MatrixReport rep;
  rep.name = e.name;
  const CsrMatrix& a = e.matrix;
  rep.n = a.rows();
  rep.nnz = a.nnz();
  rep.trimmed = a.rows() >= kTrimRows;

  // First-thread-count fused solutions; every later thread count and every
  // unfused run must reproduce them bitwise.
  std::vector<value_t> ref_pcg_x, ref_gmres_x;

  for (std::size_t ti = 0; ti < cfg.threads.size(); ++ti) {
    const int t = cfg.threads[ti];
    ThreadCountGuard guard(t);
    IluOptions opts;
    opts.num_threads = t;
    opts.fill_level = cfg.fill;
    // Each row of the sweep must measure the PLANNED team (see file header).
    opts.retarget_oversubscribed = false;

    ThreadTimings tt;
    tt.threads = t;
    {
      const RepTimes rt =
          rep_times_seconds([&] { ilu_factor(a, opts); }, cfg.reps, 1);
      tt.factor_s = rt.min_s;
      tt.factor_med_s = rt.median_s;
    }

    Factorization f = ilu_factor(a, opts);
    tt.fwd = sched_stats(f.fwd, f.plan.min_level_rows);
    tt.bwd = sched_stats(f.bwd, f.plan.min_level_rows);
    if (cfg.verify) {
      // Static happens-before analysis of the exact schedules this row
      // times. Uncached deps closures: verification reads the factor's own
      // sparsity, the same way retarget() does.
      const auto check = [&](VerifyBlock& vb, const ExecSchedule& s,
                             const DepsFn& deps, const char* dir) {
        const verify::VerifyReport vr = verify::verify_schedule(s, deps);
        vb.present = true;
        vb.ok = vr.ok();
        vb.stats = vr.stats;
        if (!vb.ok) {
          std::fprintf(stderr, "VERIFY FAILURE on %s %s t=%d: %s\n",
                       rep.name.c_str(), dir, t, vr.summary().c_str());
        }
      };
      check(tt.verify_fwd, f.fwd, lower_triangular_deps(f.lu), "fwd");
      check(tt.verify_bwd, f.bwd, upper_triangular_deps(f.lu), "bwd");
      const bool row_ok = tt.verify_fwd.ok && tt.verify_bwd.ok;
      if (rep.schedule_verified < 0) rep.schedule_verified = 1;
      if (!row_ok) rep.schedule_verified = 0;
    }
    if (ti == 0) {
      rep.levels = f.plan.total_levels;
      rep.rows_moved = f.plan.rows_moved;
      rep.method = f.plan.rows_moved == 0 ? "none" : "ER";
      rep.ordering = ordering_name(f.plan.ordering);
      rep.natural_levels = f.plan.natural_levels;
      rep.ordered_levels = f.plan.ordered_levels;
      rep.order_s = f.plan.order_s;
    }
    {
      const RepTimes rt =
          rep_times_seconds([&] { ilu_refactor(f, a); }, cfg.reps, 1);
      tt.refactor_s = rt.min_s;
      tt.refactor_med_s = rt.median_s;
    }
    tt.scatter_map_s =
        min_time_seconds([&] { scatter_values(f, a); }, cfg.reps, 1);
    tt.scatter_searched_s =
        min_time_seconds([&] { scatter_values_searched(f, a); }, cfg.reps, 1);
    // scatter_values_searched leaves unfactored values; restore the factor
    // before timing the solve.
    ilu_refactor(f, a);

    const auto r = random_vector(a.rows(), 0xB0B);
    std::vector<value_t> z(r.size());
    SolveWorkspace ws;
    ilu_apply(f, r, z, ws);  // warm the workspace
    {
      const RepTimes rt =
          rep_times_seconds([&] { ilu_apply(f, r, z, ws); }, cfg.reps, 1);
      tt.solve_s = rt.min_s;
      tt.solve_med_s = rt.median_s;
    }

    // Barrier (CSR-LS) baseline on the SAME factor — tag every level
    // kBarrier (structure is shared), re-time the apply, and check bitwise
    // parity against the P2P sweep. This is the paper's §VI per-sweep
    // comparison.
    {
      Factorization fb = f;  // schedule copy; retarget caches reset
      tag_all_levels(fb, LevelRegime::kBarrier);
      std::vector<value_t> zb(r.size());
      SolveWorkspace wsb;
      ilu_apply(fb, r, zb, wsb);  // warm
      const RepTimes rt =
          rep_times_seconds([&] { ilu_apply(fb, r, zb, wsb); }, cfg.reps, 1);
      tt.solve_ls_s = rt.min_s;
      tt.solve_ls_med_s = rt.median_s;
      if (zb != z) rep.backend_parity = false;
    }

    // Instrumented pass (stall_profile + optional trace) at the LAST thread
    // count — after the uninstrumented timings above, on fresh factor
    // copies, so the numbers it perturbs are its own.
    if (ti + 1 == cfg.threads.size()) {
      collect_stall_profile(rep, f, a, e.paper_sym_pattern, t, cfg);
    }

    const RowPartition part = RowPartition::build(a, t);
    std::vector<value_t> y(r.size());
    {
      const RepTimes rt =
          rep_times_seconds([&] { spmv(a, part, r, y); }, cfg.reps, 1);
      tt.spmv_s = rt.min_s;
      tt.spmv_med_s = rt.median_s;
    }

    // Batched many-RHS serving throughput: solve_many over k concurrent
    // right-hand sides under the SERVING configuration (retarget on — a
    // planned team that oversubscribes the machine re-plans to the core
    // count instead of spinning, exactly what a deployed server does). Each
    // point is bitwise-checked against k independent scalar applies of the
    // SAME factor; k / batch_s is the solves/sec the batch sustained.
    {
      const bool saved_retarget = f.opts.retarget_oversubscribed;
      f.opts.retarget_oversubscribed = true;
      ThroughputRow row;
      row.threads = t;
      SolveWorkspace wt;
      std::vector<value_t> z1(r.size());
      ilu_apply(f, r, z1, wt);  // warm the retarget caches
      row.solve_1_s =
          min_time_seconds([&] { ilu_apply(f, r, z1, wt); }, cfg.reps, 1);

      index_t k_max = 1;
      for (index_t k : cfg.streams) k_max = std::max(k_max, k);
      const std::size_t un = static_cast<std::size_t>(a.rows());
      std::vector<value_t> rp(un * static_cast<std::size_t>(k_max));
      for (index_t j = 0; j < k_max; ++j) {
        const auto col =
            random_vector(a.rows(), 0xD00D + static_cast<std::uint64_t>(j));
        std::copy(col.begin(), col.end(),
                  rp.begin() + static_cast<std::size_t>(j) * un);
      }
      // Scalar reference, prefix-closed: the first k columns of the k_max
      // reference ARE the k-RHS reference (columns are independent).
      std::vector<value_t> z_ref(rp.size());
      for (index_t j = 0; j < k_max; ++j) {
        ilu_apply(f,
                  std::span<const value_t>(rp).subspan(
                      static_cast<std::size_t>(j) * un, un),
                  std::span<value_t>(z_ref).subspan(
                      static_cast<std::size_t>(j) * un, un),
                  wt);
      }
      std::vector<value_t> zp(rp.size());
      for (index_t k : cfg.streams) {
        if (k < 1 || k > k_max) continue;
        const std::size_t nk = un * static_cast<std::size_t>(k);
        StreamPoint pt;
        pt.k = k;
        pt.batch_s = min_time_seconds(
            [&] {
              solve_many(f, std::span<const value_t>(rp).first(nk),
                         std::span<value_t>(zp).first(nk), k, wt);
            },
            cfg.reps, 1);
        pt.solves_per_s =
            pt.batch_s > 0 ? static_cast<double>(k) / pt.batch_s : 0;
        pt.batched_parity =
            std::equal(zp.begin(), zp.begin() + static_cast<std::ptrdiff_t>(nk),
                       z_ref.begin());
        if (!pt.batched_parity) rep.batched_parity = false;
        row.points.push_back(pt);
      }
      rep.throughput.push_back(std::move(row));
      f.opts.retarget_oversubscribed = saved_retarget;
    }

    // Fused vs unfused Krylov inner loop: the SAME restructured drivers, the
    // only difference being one scheduled pass (ilu_apply_spmv) vs two
    // kernel launches (ilu_apply then spmv) per iteration. tolerance 0 runs
    // the full iteration budget so the quotient is a per-iteration wall
    // time, and the solutions double as the bitwise parity check — fused vs
    // unfused, and against the first thread count. Trimmed (production-
    // scale) matrices skip the Krylov/AMG races below — they would run for
    // hours at this scale — but keep everything above plus the throughput
    // sweep.
    if (!rep.trimmed) {
      SolverOptions fo;
      fo.max_iterations = 30;
      fo.tolerance = 0;
      FusedIluOperator fop(a, Factorization(f));
      const KrylovOperator uop = unfused_operator(a, fop.fn());
      std::vector<value_t> xf(r.size()), xu(r.size());
      // One checked run per mode for parity + iteration count, then
      // min-of-reps for the wall time (min filters scheduler noise, which
      // dominates when the team oversubscribes the machine).
      const auto time_iter = [&](auto&& solve, std::vector<value_t>& x) {
        std::fill(x.begin(), x.end(), 0);
        const SolverResult res = solve(x);
        const double wall = min_time_seconds(
            [&] {
              std::fill(x.begin(), x.end(), 0);
              solve(x);
            },
            cfg.reps, 1);
        return wall / std::max(1, res.iterations);
      };
      if (e.paper_sym_pattern) {
        tt.pcg_fused_iter_s = time_iter(
            [&](std::span<value_t> x) { return pcg_fused(a, r, x, fop.op(), fo); },
            xf);
        tt.pcg_unfused_iter_s = time_iter(
            [&](std::span<value_t> x) { return pcg_fused(a, r, x, uop, fo); },
            xu);
        if (xf != xu) rep.fused_parity = false;
        if (ref_pcg_x.empty()) {
          ref_pcg_x = xf;
        } else if (xf != ref_pcg_x) {
          rep.fused_parity = false;
        }
      }
      tt.gmres_fused_iter_s = time_iter(
          [&](std::span<value_t> x) { return gmres_fused(a, r, x, fop.op(), fo); },
          xf);
      tt.gmres_unfused_iter_s = time_iter(
          [&](std::span<value_t> x) { return gmres_fused(a, r, x, uop, fo); },
          xu);
      if (xf != xu) rep.fused_parity = false;
      if (ref_gmres_x.empty()) {
        ref_gmres_x = xf;
      } else if (xf != ref_gmres_x) {
        rep.fused_parity = false;
      }
    }

    SolverOptions sopts;
    sopts.max_iterations = 400;
    sopts.tolerance = 1e-8;
    if (!rep.trimmed && e.paper_sym_pattern) {
      // Symmetric-pattern entries: full AMG-PCG vs ILU-PCG wall-time race at
      // every thread count (iteration counts are deterministic, so they are
      // recorded once), with the ILU-PCG run under BOTH sweeps — same
      // factor, same trajectory, only the sweep synchronization differs.
      std::vector<value_t> x(r.size(), 0), x_ls(r.size(), 0);
      {
        Factorization fb = f;
        tag_all_levels(fb, LevelRegime::kBarrier);
        IluPreconditioner mb(std::move(fb));
        Timer ls_t;
        const SolverResult lres = pcg(a, r, x_ls, mb.fn(), sopts);
        tt.ilu_pcg_ls_s = ls_t.seconds();
        if (ti == 0) {
          rep.pcg_iterations_ls =
              lres.converged ? lres.iterations : -lres.iterations;
        }
      }
      IluPreconditioner m(std::move(f));  // last use of f this iteration
      Timer ilu_t;
      const SolverResult ires = pcg(a, r, x, m.fn(), sopts);
      tt.ilu_pcg_s = ilu_t.seconds();
      if (x != x_ls) rep.backend_parity = false;
      if (ti == 0) {
        rep.pcg_iterations = ires.converged ? ires.iterations : -ires.iterations;
      }
      try {
        AmgOptions aopts;
        aopts.num_threads = t;
        Timer setup_t;
        AmgPreconditioner amg(a, aopts);
        tt.amg_setup_s = setup_t.seconds();
        if (ti == 0) {
          rep.amg_levels = amg.hierarchy().num_levels();
          rep.amg_operator_complexity = amg.hierarchy().operator_complexity();
          rep.amg_aggregate_hist =
              amg.hierarchy().levels.front().aggregate_hist;
        }
        std::vector<value_t> zc(r.size());
        amg.apply(r, zc);  // warm the hierarchy scratch
        tt.amg_cycle_s =
            min_time_seconds([&] { amg.apply(r, zc); }, cfg.reps, 1);
        std::fill(x.begin(), x.end(), 0);
        Timer amg_t;
        const SolverResult ares = pcg(a, r, x, amg.fn(), sopts);
        tt.amg_pcg_s = amg_t.seconds();
        if (ti == 0) {
          rep.amg_iterations =
              ares.converged ? ares.iterations : -ares.iterations;
        }
      } catch (const Error& err) {
        if (ti == 0) std::printf("  amg skipped: %s\n", err.what());
      }
    } else if (!rep.trimmed && ti == 0) {
      // Unsymmetric entries: GMRES iteration counts + bitwise P2P/CSR-LS parity
      // recorded once (the per-sweep timing race above already runs at every
      // thread count).
      Factorization fb = f;
      tag_all_levels(fb, LevelRegime::kBarrier);
      IluPreconditioner mb(std::move(fb));
      IluPreconditioner m(std::move(f));
      std::vector<value_t> x(r.size(), 0), x_ls(r.size(), 0);
      const SolverResult res = gmres(a, r, x, m.fn(), sopts);
      const SolverResult lres = gmres(a, r, x_ls, mb.fn(), sopts);
      rep.pcg_iterations = res.converged ? res.iterations : -res.iterations;
      rep.pcg_iterations_ls =
          lres.converged ? lres.iterations : -lres.iterations;
      if (x != x_ls) rep.backend_parity = false;
    }

    rep.timings.push_back(tt);
    std::printf(
        "  %-18s t=%d  factor %.4fs  refactor %.4fs  scatter map/searched "
        "%.5f/%.5fs  solve p2p/ls %.5f/%.5fs (%.2fx)  spmv %.5fs",
        e.name.c_str(), t, tt.factor_s, tt.refactor_s, tt.scatter_map_s,
        tt.scatter_searched_s, tt.solve_s, tt.solve_ls_s,
        tt.solve_s > 0 ? tt.solve_ls_s / tt.solve_s : 0.0, tt.spmv_s);
    if (tt.pcg_fused_iter_s >= 0) {
      std::printf("  pcg-it fused/unfused %.5f/%.5fs (%.2fx)",
                  tt.pcg_fused_iter_s, tt.pcg_unfused_iter_s,
                  tt.pcg_unfused_iter_s / tt.pcg_fused_iter_s);
    }
    if (tt.gmres_fused_iter_s >= 0) {
      std::printf("  gmres-it fused/unfused %.5f/%.5fs (%.2fx)",
                  tt.gmres_fused_iter_s, tt.gmres_unfused_iter_s,
                  tt.gmres_unfused_iter_s / tt.gmres_fused_iter_s);
    }
    if (tt.amg_pcg_s >= 0) {
      std::printf("  pcg ilu/amg %.4f/%.4fs (it %d/%d)", tt.ilu_pcg_s,
                  tt.amg_pcg_s, rep.pcg_iterations, rep.amg_iterations);
    }
    if (!rep.throughput.empty() && !rep.throughput.back().points.empty()) {
      const ThroughputRow& row = rep.throughput.back();
      std::printf("  serve 1-RHS %.2f/s",
                  row.solve_1_s > 0 ? 1.0 / row.solve_1_s : 0.0);
      for (const StreamPoint& pt : row.points) {
        std::printf("  k=%d %.2f/s%s", static_cast<int>(pt.k),
                    pt.solves_per_s, pt.batched_parity ? "" : " PARITY-FAIL");
      }
    }
    std::printf("\n");
  }
  // Factor-time autotuner decision (schema-v6 `autotune` block) — after the
  // fixed-policy sweep so the grid measurements can't perturb it.
  run_autotune(rep, a, cfg);
  // Robust-pipeline statistics (skipped at production scale: one more full
  // Krylov solve). On this healthy suite the expectation is a one-attempt,
  // zero-shift trail — anything else is a regression worth seeing in the
  // JSON diff.
  if (!rep.trimmed) run_robust(rep, a);
  rep.peak_rss_mb = peak_rss_mb_now();
  return rep;
}

void write_json(const BenchConfig& cfg, const std::vector<MatrixReport>& reps) {
  std::ofstream os(cfg.out);
  // schema_version 7: + per-matrix ordering / natural_levels /
  // ordered_levels / order_s (the preordering ilu_prepare chose and why).
  // schema_version 6 added the per-matrix `autotune` block (the factor-time tuner's
  // candidate grid, the pinned winner re-measured as auto_solve_s, its ratios
  // against the serial and best-fixed candidates, and the bitwise
  // autotune_parity flag that joins the exit gate), regime-coverage
  // deps_covered_regime in the --verify blocks, and
  // rows_per_level_mean / small_level_row{s,_frac} in sched_fwd/sched_bwd.
  // schema_version 5 added per-matrix schedule_verified (null when --verify
  // is off) and, under --verify, verify_fwd/verify_bwd blocks in every
  // timings row — the static analyzer's happens-before coverage accounting,
  // whose direct/transitive split quantifies the wait sparsification.
  // schema_version 4 added per-matrix stall_profile (spin-wait / barrier
  // telemetry of one instrumented pass per sweep kind at the last thread
  // count), *_med_s median timings next to the min-of-reps numbers, and
  // rows_per_level_{min,med,max,hist} in the sched_fwd/sched_bwd blocks;
  // 3 added the robust_* breakdown-retry trail and robust_only; 2 added
  // tier / streams headers, the throughput table, peak_rss_mb and trimmed.
  // See README "Benchmark JSON schema".
  os << "{\n  \"schema_version\": 7,\n  \"tier\": \"" << cfg.tier
     << "\",\n  \"suite_scale\": " << cfg.scale
     << ",\n  \"fill_level\": " << cfg.fill << ",\n  \"reps\": " << cfg.reps
     << ",\n  \"threads\": [";
  for (std::size_t i = 0; i < cfg.threads.size(); ++i) {
    os << (i ? ", " : "") << cfg.threads[i];
  }
  os << "],\n  \"streams\": [";
  for (std::size_t i = 0; i < cfg.streams.size(); ++i) {
    os << (i ? ", " : "") << cfg.streams[i];
  }
  os << "],\n  \"results\": [\n";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const MatrixReport& r = reps[i];
    os << "    {\"matrix\": \"" << r.name << "\", \"n\": " << r.n
       << ", \"nnz\": " << r.nnz << ", \"levels\": " << r.levels
       << ", \"rows_moved\": " << r.rows_moved << ", \"method\": \""
       << r.method << "\", \"ordering\": \"" << r.ordering
       << "\", \"natural_levels\": " << r.natural_levels
       << ", \"ordered_levels\": " << r.ordered_levels
       << ", \"order_s\": " << r.order_s
       << ", \"krylov_iterations\": " << r.pcg_iterations
       << ", \"krylov_iterations_ls\": " << r.pcg_iterations_ls
       << ", \"amg_iterations\": " << r.amg_iterations
       << ", \"amg_levels\": " << r.amg_levels
       << ", \"amg_operator_complexity\": " << r.amg_operator_complexity
       << ", \"fused_parity\": " << (r.fused_parity ? "true" : "false")
       << ", \"backend_parity\": " << (r.backend_parity ? "true" : "false")
       << ", \"batched_parity\": " << (r.batched_parity ? "true" : "false")
       << ", \"schedule_verified\": "
       << (r.schedule_verified < 0 ? "null"
                                   : (r.schedule_verified ? "true" : "false"))
       << ", \"trimmed\": " << (r.trimmed ? "true" : "false")
       << ", \"peak_rss_mb\": " << r.peak_rss_mb
       << ",\n     \"robust_only\": " << (r.robust_only ? "true" : "false")
       << ", \"robust_attempts\": " << r.robust_attempts
       << ", \"shift_used\": " << r.robust_shift
       << ", \"robust_level\": \"" << r.robust_level
       << "\", \"robust_cause\": \"" << r.robust_cause
       << "\", \"robust_converged\": " << (r.robust_converged ? "true" : "false")
       << ",\n     \"amg_aggregate_hist\": [";
    for (std::size_t j = 0; j < r.amg_aggregate_hist.size(); ++j) {
      os << (j ? ", " : "") << r.amg_aggregate_hist[j];
    }
    os << "],\n     \"timings\": [\n";
    const auto sched = [&os](const char* key, const SchedStats& s) {
      os << ", \"" << key << "\": {\"levels\": " << s.levels
         << ", \"deps_total\": " << s.deps_total << ", \"waits\": " << s.waits
         << ", \"items\": " << s.items
         << ", \"max_items_per_thread\": " << s.max_items_per_thread
         << ", \"rows_per_level_min\": " << s.rows_per_level_min
         << ", \"rows_per_level_med\": " << s.rows_per_level_med
         << ", \"rows_per_level_max\": " << s.rows_per_level_max
         << ", \"rows_per_level_mean\": " << s.rows_per_level_mean
         << ", \"small_level_rows\": " << s.small_level_rows
         << ", \"small_level_row_frac\": " << s.small_level_row_frac
         << ", \"rows_per_level_hist\": [";
      for (std::size_t b = 0; b < s.rows_per_level_hist.size(); ++b) {
        os << (b ? ", " : "") << s.rows_per_level_hist[b];
      }
      os << "]}";
    };
    const auto verify_block = [&os](const char* key, const VerifyBlock& v) {
      if (!v.present) return;  // key absent entirely when --verify is off
      os << ", \"" << key << "\": {\"ok\": " << (v.ok ? "true" : "false")
         << ", \"items\": " << v.stats.items
         << ", \"levels\": " << v.stats.levels
         << ", \"waits_total\": " << v.stats.waits_total
         << ", \"deps_external\": " << v.stats.deps_external
         << ", \"deps_same_thread\": " << v.stats.deps_same_thread
         << ", \"deps_cross_thread\": " << v.stats.deps_cross_thread
         << ", \"deps_covered_direct\": " << v.stats.deps_covered_direct
         << ", \"deps_covered_regime\": " << v.stats.deps_covered_regime
         << ", \"deps_covered_transitive\": "
         << v.stats.deps_covered_transitive
         << ", \"deps_uncovered\": " << v.stats.deps_uncovered << "}";
    };
    for (std::size_t j = 0; j < r.timings.size(); ++j) {
      const ThreadTimings& t = r.timings[j];
      os << "       {\"threads\": " << t.threads << ", \"factor_s\": "
         << t.factor_s << ", \"factor_med_s\": " << t.factor_med_s
         << ", \"refactor_s\": " << t.refactor_s
         << ", \"refactor_med_s\": " << t.refactor_med_s
         << ", \"scatter_map_s\": " << t.scatter_map_s
         << ", \"scatter_searched_s\": " << t.scatter_searched_s
         << ", \"solve_s\": " << t.solve_s
         << ", \"solve_med_s\": " << t.solve_med_s
         << ", \"solve_ls_s\": " << t.solve_ls_s
         << ", \"solve_ls_med_s\": " << t.solve_ls_med_s
         << ", \"ls_over_p2p_solve\": "
         << (t.solve_s > 0 ? t.solve_ls_s / t.solve_s : -1)
         << ", \"spmv_s\": " << t.spmv_s
         << ", \"spmv_med_s\": " << t.spmv_med_s
         << ", \"pcg_fused_iter_s\": " << t.pcg_fused_iter_s
         << ", \"pcg_unfused_iter_s\": " << t.pcg_unfused_iter_s
         << ", \"gmres_fused_iter_s\": " << t.gmres_fused_iter_s
         << ", \"gmres_unfused_iter_s\": " << t.gmres_unfused_iter_s
         << ", \"amg_setup_s\": " << t.amg_setup_s
         << ", \"amg_cycle_s\": " << t.amg_cycle_s
         << ", \"amg_pcg_s\": " << t.amg_pcg_s
         << ", \"ilu_pcg_s\": " << t.ilu_pcg_s
         << ", \"ilu_pcg_ls_s\": " << t.ilu_pcg_ls_s;
      sched("sched_fwd", t.fwd);
      sched("sched_bwd", t.bwd);
      verify_block("verify_fwd", t.verify_fwd);
      verify_block("verify_bwd", t.verify_bwd);
      os << "}" << (j + 1 < r.timings.size() ? "," : "") << "\n";
    }
    os << "     ],\n     \"throughput\": [\n";
    for (std::size_t j = 0; j < r.throughput.size(); ++j) {
      const ThroughputRow& row = r.throughput[j];
      os << "       {\"threads\": " << row.threads
         << ", \"solve_1_s\": " << row.solve_1_s << ", \"streams\": [";
      for (std::size_t p = 0; p < row.points.size(); ++p) {
        const StreamPoint& pt = row.points[p];
        os << (p ? ", " : "") << "{\"k\": " << pt.k
           << ", \"batch_s\": " << pt.batch_s
           << ", \"solves_per_s\": " << pt.solves_per_s
           << ", \"batched_parity\": " << (pt.batched_parity ? "true" : "false")
           << "}";
      }
      os << "]}" << (j + 1 < r.throughput.size() ? "," : "") << "\n";
    }
    os << "     ],\n     \"stall_profile\": ";
    if (r.stall.threads == 0) {
      os << "null";
    } else {
      const auto region = [&os](const char* key, const RegionProfile& p) {
        os << "\"" << key << "\": ";
        if (!p.present) {
          os << "null";
          return;
        }
        os << "{\"sweeps\": " << p.sweeps << ", \"wall_ns\": " << p.wall_ns
           << ", \"critical_path_ns\": " << p.critical_path_ns
           << ", \"occupancy\": " << p.occupancy
           << ", \"sync_wait_frac\": " << p.sync_wait_frac
           << ", \"waits\": " << p.total.waits
           << ", \"waits_immediate\": " << p.total.waits_immediate
           << ", \"waits_stalled\": " << p.total.waits_stalled
           << ", \"spins\": " << p.total.spins
           << ", \"yields\": " << p.total.yields
           << ", \"barrier_waits\": " << p.total.barrier_waits
           << ", \"busy_ns\": " << p.total.busy_ns
           << ", \"wait_ns\": " << p.total.wait_ns
           << ", \"barrier_ns\": " << p.total.barrier_ns
           << ", \"level_wait_frac_binned\": "
           << (p.binned ? "true" : "false") << ", \"level_wait_frac\": [";
        for (std::size_t l = 0; l < p.level_wait_frac.size(); ++l) {
          os << (l ? ", " : "") << p.level_wait_frac[l];
        }
        os << "]}";
      };
      os << "{\"threads\": " << r.stall.threads
         << ", \"reps\": " << r.stall.reps << ",\n      \"p2p\": {";
      region("fwd", r.stall.p2p_fwd);
      os << ", ";
      region("bwd", r.stall.p2p_bwd);
      os << "},\n      \"barrier\": {";
      region("fwd", r.stall.ls_fwd);
      os << ", ";
      region("bwd", r.stall.ls_bwd);
      os << "}}";
    }
    os << ",\n     \"autotune\": ";
    if (!r.autotune.present) {
      os << "null";
    } else {
      const AutotuneBlock& ab = r.autotune;
      os << "{\"threads\": " << ab.threads << ", \"mode\": \""
         << (ab.deterministic ? "cost_model" : "wallclock")
         << "\", \"chosen\": \"" << ab.chosen
         << "\", \"chosen_threads\": " << ab.chosen_threads
         << ", \"chosen_hybrid\": " << (ab.chosen_hybrid ? "true" : "false")
         << ", \"chosen_chunk_rows\": " << ab.chosen_chunk_rows
         << ", \"hybrid_applied\": " << (ab.hybrid_applied ? "true" : "false")
         << ", \"auto_solve_s\": " << ab.auto_solve_s
         << ", \"serial_s\": " << ab.serial_s << ", \"best_fixed\": \""
         << ab.best_fixed << "\", \"best_fixed_s\": " << ab.best_fixed_s
         << ", \"ratio_vs_serial\": " << ab.ratio_vs_serial
         << ", \"ratio_vs_best_fixed\": " << ab.ratio_vs_best_fixed
         << ", \"autotune_parity\": " << (ab.parity ? "true" : "false")
         << ",\n      \"candidates\": [";
      for (std::size_t c = 0; c < ab.candidates.size(); ++c) {
        os << (c ? ", " : "") << "{\"name\": \"" << ab.candidates[c].name
           << "\", \"seconds\": " << ab.candidates[c].seconds << "}";
      }
      os << "]}";
    }
    os << "}" << (i + 1 < reps.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

/// Resolve a bench entry name: `laplacian3d_<s>` / `laplacian2d_<s>` build
/// an s×s×s / s×s grid Laplacian directly (scale-independent, so the
/// acceptance-grade AMG-vs-ILU comparison always runs at full size);
/// anything else is a synthetic-suite name.
gen::SuiteEntry make_bench_entry(const std::string& name,
                                 const gen::SuiteOptions& sopts) {
  const auto grid_side = [&](const char* prefix) -> index_t {
    const std::size_t plen = std::strlen(prefix);
    if (name.rfind(prefix, 0) != 0) return 0;
    const int s = std::atoi(name.c_str() + plen);
    JAVELIN_CHECK(s > 1, "bad grid side in bench entry name: " + name);
    return static_cast<index_t>(s);
  };
  if (const index_t s = grid_side("laplacian3d_")) {
    gen::SuiteEntry e;
    e.name = name;
    e.matrix = gen::laplacian3d(s, s, s, 7);
    e.paper_sym_pattern = true;
    return e;
  }
  if (const index_t s = grid_side("laplacian2d_")) {
    gen::SuiteEntry e;
    e.name = name;
    e.matrix = gen::laplacian2d(s, s, 5);
    e.paper_sym_pattern = true;
    return e;
  }
  if (const index_t s = grid_side("aniso3d_")) {
    gen::SuiteEntry e;
    e.name = name;
    e.matrix = gen::anisotropic3d(s, s, s, 0.1, 0.01);
    e.paper_sym_pattern = true;
    return e;
  }
  if (const index_t s = grid_side("jump3d_")) {
    gen::SuiteEntry e;
    e.name = name;
    // 8³-cell coefficient blocks, 4 decades of contrast: SPE-style jumps.
    e.matrix = gen::jump3d(s, s, s, 8, 1e4, 0x1A3);
    e.paper_sym_pattern = true;
    return e;
  }
  return gen::make_suite_matrix(name, sopts);
}

/// Load a Matrix-Market file as a bench entry; the Krylov driver (pcg vs
/// gmres) follows the file's actual numeric symmetry.
gen::SuiteEntry make_file_entry(const std::string& path) {
  gen::SuiteEntry e;
  const std::size_t slash = path.find_last_of('/');
  e.name = slash == std::string::npos ? path : path.substr(slash + 1);
  e.matrix = read_matrix_market_file(path);
  e.matrix.validate();
  // Numerically symmetric (over the union pattern) is exactly what the pcg
  // path needs; one transpose suffices.
  e.paper_sym_pattern =
      max_abs_difference(e.matrix, transpose(e.matrix)) == 0;
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig cfg = parse_args(argc, argv);

  gen::SuiteOptions sopts;
  sopts.scale = cfg.scale;
  std::vector<std::string> names = cfg.matrices;
  if (names.empty() && cfg.matrix_files.empty()) {
    names = gen::suite_names();
    // The acceptance-grade AMG matrix: big enough that ILU-PCG iteration
    // counts hurt and the O(n) hierarchy pulls ahead.
    names.push_back("laplacian3d_40");
    if (cfg.tier == "large") {
      // Production-scale tier: 128³ ≈ 2.1M-row 3-D problems (isotropic,
      // anisotropic, jumpy-coefficient). Krylov/AMG races are trimmed at
      // this size; the latency table and the batched throughput sweep run.
      names.push_back("laplacian3d_128");
      names.push_back("aniso3d_128");
      names.push_back("jump3d_128");
    }
  }

  std::printf("javelin bench: tier=%s scale=%.3g fill=%d reps=%d\n",
              cfg.tier.c_str(), cfg.scale, cfg.fill, cfg.reps);
  std::vector<MatrixReport> reports;
  const std::vector<std::string> degenerate = gen::degenerate_names();
  for (const std::string& name : names) {
    try {
      gen::SuiteEntry e = make_bench_entry(name, sopts);
      std::printf("%s (n=%d, nnz=%d)\n", name.c_str(), e.matrix.rows(),
                  e.matrix.nnz());
      // Degenerate fixtures defeat the throwing factor path by construction;
      // they bench the robust pipeline instead of the timing sweep.
      const bool is_degenerate =
          std::find(degenerate.begin(), degenerate.end(), name) !=
          degenerate.end();
      reports.push_back(is_degenerate ? bench_degenerate(e)
                                      : bench_matrix(e, cfg));
    } catch (const Error& err) {
      std::printf("%s SKIPPED: %s\n", name.c_str(), err.what());
    }
  }
  for (const std::string& path : cfg.matrix_files) {
    try {
      gen::SuiteEntry e = make_file_entry(path);
      std::printf("%s (n=%d, nnz=%d, %s)\n", e.name.c_str(), e.matrix.rows(),
                  e.matrix.nnz(), e.paper_sym_pattern ? "sym" : "unsym");
      reports.push_back(bench_matrix(e, cfg));
    } catch (const Error& err) {
      std::printf("%s SKIPPED: %s\n", path.c_str(), err.what());
    }
  }

  // Degenerate group-D fixtures ride along as robust-only rows (only when
  // the run uses the default matrix list — an explicit --matrices selection
  // stays exactly what the caller asked for).
  if (cfg.matrices.empty() && cfg.matrix_files.empty() &&
      cfg.tier == "small") {
    std::printf("degenerate fixtures (robust pipeline only)\n");
    for (const std::string& name : gen::degenerate_names()) {
      try {
        reports.push_back(bench_degenerate(gen::make_suite_matrix(name, sopts)));
      } catch (const Error& err) {
        std::printf("%s SKIPPED: %s\n", name.c_str(), err.what());
      }
    }
  }

  write_json(cfg, reports);
  std::printf("wrote %s\n", cfg.out.c_str());

  if (!cfg.trace.empty()) {
    obs::TraceSession& ts = obs::TraceSession::instance();
    if (ts.write_file(cfg.trace)) {
      std::printf("wrote %s (%zu trace events)\n", cfg.trace.c_str(),
                  ts.event_count());
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n", cfg.trace.c_str());
      return 1;
    }
  }

  // Standing gate: the parity guarantees must stay green on every
  // non-degenerate matrix — a bench run that produced a parity failure is a
  // correctness regression, not a perf data point, and must fail loudly.
  bool parity_ok = true;
  for (const MatrixReport& r : reports) {
    if (r.robust_only) continue;
    if (!r.backend_parity || !r.batched_parity || !r.fused_parity ||
        (r.autotune.present && !r.autotune.parity)) {
      std::fprintf(
          stderr,
          "PARITY FAILURE on %s: backend=%d batched=%d fused=%d autotune=%d\n",
          r.name.c_str(), r.backend_parity ? 1 : 0, r.batched_parity ? 1 : 0,
          r.fused_parity ? 1 : 0,
          r.autotune.present && !r.autotune.parity ? 0 : 1);
      parity_ok = false;
    }
    // --verify failures already printed row-precise diagnostics inline; the
    // summary line here names the matrix for the CI log grep.
    if (r.schedule_verified == 0) {
      std::fprintf(stderr, "VERIFY FAILURE on %s\n", r.name.c_str());
      parity_ok = false;
    }
  }
  return parity_ok ? 0 : 1;
}
