// Property tests of the observability layer (obs/):
//
//   * the instrumented template instantiations are BITWISE inert: factor,
//     ilu_apply and the fused apply+SpMV with an ExecObs attached reproduce
//     the uninstrumented and serial results exactly, at T ∈ {1, 2, 4, 8}
//     under P2P and all-barrier (CSR-LS) tags;
//   * trace sessions record well-formed streams: balanced B/E pairs with
//     per-thread monotone timestamps, and the Chrome JSON export parses as
//     one traceEvents object;
//   * the spin-wait counters obey their accounting identities
//     (waits == waits_immediate + waits_stalled, spins >= waits_stalled,
//     per-thread slots sum to the region total) and their deterministic
//     components (wait calls per sweep == deps_kept; barrier crossings ==
//     sweeps × (levels - 1) × threads with every level kBarrier, sweeps ×
//     (segments - 1) × threads on a tagged default factor — segment 0 has
//     no entry barrier) are exact;
//   * a tagged default factor (narrow levels serialized) traces its levels
//     through the segment walk like an untagged one does;
//   * the numeric phase traces its lower stage (one factor_lower span per
//     participating thread, never more threads than the runtime team) and
//     its corner (factor_corner), also on a refactor below the plan's team;
//   * MetricsRegistry merges are order-invariant and the schedule-shape
//     metrics (rows_per_level) are identical across thread counts.
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/obs/exec_obs.hpp"
#include "javelin/obs/metrics.hpp"
#include "javelin/obs/trace.hpp"
#include "javelin/solver/krylov.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;
using javelin::test::bitwise_equal;
using javelin::test::ilu_factor_csrls;
using javelin::test::random_vector;

namespace {

CsrMatrix test_matrix() { return gen::laplacian3d(12, 12, 12, 7); }

IluOptions base_opts(int t) {
  IluOptions opts;
  opts.num_threads = t;
  opts.retarget_oversubscribed = false;
  return opts;
}

/// The default factor, or with `be` == kBarrier the CSR-LS one.
Factorization factor_for(const CsrMatrix& a, LevelRegime be,
                         const IluOptions& opts) {
  return be == LevelRegime::kBarrier ? ilu_factor_csrls(a, opts)
                                     : ilu_factor(a, opts);
}

// --- (a) instrumentation is bitwise inert --------------------------------

void check_parity(const CsrMatrix& a, LevelRegime be, int t) {
  ThreadCountGuard guard(t);
  const char* bname = be == LevelRegime::kP2P ? "p2p" : "barrier";

  const Factorization f_plain = factor_for(a, be, base_opts(t));

  obs::ExecObs eo;
  IluOptions iopts = base_opts(t);
  iopts.exec_obs = &eo;
  const Factorization f_obs = factor_for(a, be, iopts);
  CHECK_MSG(bitwise_equal(f_plain.lu.values(), f_obs.lu.values()),
            "%s t=%d instrumented factor", bname, t);
  CHECK_MSG(eo.has(obs::Region::kFactor), "%s t=%d factor stats", bname, t);

  const auto r = random_vector(a.rows(), 0xFACE);
  std::vector<value_t> z_plain(r.size()), z_obs(r.size()), z_ser(r.size());
  SolveWorkspace ws_plain, ws_obs, ws_ser;
  ilu_apply(f_plain, r, z_plain, ws_plain);
  ilu_apply(f_obs, r, z_obs, ws_obs);
  ilu_apply_serial(f_plain, r, z_ser, ws_ser);
  CHECK_MSG(bitwise_equal(z_obs, z_plain), "%s t=%d apply obs vs plain",
            bname, t);
  CHECK_MSG(bitwise_equal(z_obs, z_ser), "%s t=%d apply obs vs serial",
            bname, t);
  CHECK_MSG(eo.has(obs::Region::kForward) && eo.has(obs::Region::kBackward),
            "%s t=%d sweep stats", bname, t);

  // Fused apply+SpMV: the hand-rolled region has its own instrumented body.
  const FusedApplySpmv fs_plain = build_fused_apply_spmv(f_plain, a);
  const FusedApplySpmv fs_obs = build_fused_apply_spmv(f_obs, a);
  std::vector<value_t> t_plain(r.size()), t_obs(r.size());
  ilu_apply_spmv(f_plain, a, fs_plain, r, z_plain, t_plain, ws_plain);
  ilu_apply_spmv(f_obs, a, fs_obs, r, z_obs, t_obs, ws_obs);
  CHECK_MSG(bitwise_equal(z_obs, z_plain), "%s t=%d fused z", bname, t);
  CHECK_MSG(bitwise_equal(t_obs, t_plain), "%s t=%d fused t", bname, t);
  CHECK_MSG(t <= 1 || eo.has(obs::Region::kFused), "%s t=%d fused stats",
            bname, t);
}

// --- (b) trace streams are well-formed -----------------------------------

struct TraceScan {
  bool saw_level_span = false;  ///< a per-level fwd/bwd sweep span
  bool saw_iter_span = false;   ///< a Krylov iteration span
};

/// Balanced B/E pairs with per-thread monotone timestamps, and which span
/// kinds the recorded stream holds.
TraceScan scan_trace(const obs::TraceSession& ts) {
  TraceScan scan;
  for (const auto& [tid, events] : ts.snapshot()) {
    std::vector<const char*> stack;
    std::int64_t last_ts = 0;
    bool first = true;
    for (const obs::TraceEvent& e : events) {
      if (e.ph == 'X') continue;  // cross-thread spans carry their own start
      CHECK_MSG(first || e.ts_ns >= last_ts,
                "tid %d: non-monotone ts for %s", tid, e.name);
      first = false;
      last_ts = e.ts_ns;
      if (e.ph == 'B') {
        stack.push_back(e.name);
        // Per-level sweep spans reuse the region name with the level index
        // as the argument (the arg-less span of the same name is the region
        // envelope).
        if ((std::strcmp(e.name, "fwd") == 0 ||
             std::strcmp(e.name, "bwd") == 0) &&
            e.arg != kInvalidIndex) {
          scan.saw_level_span = true;
        }
        if (std::strcmp(e.name, "pcg_iter") == 0) scan.saw_iter_span = true;
      } else if (e.ph == 'E') {
        CHECK_MSG(!stack.empty(), "tid %d: E(%s) without B", tid, e.name);
        if (!stack.empty()) {
          CHECK_MSG(std::strcmp(stack.back(), e.name) == 0,
                    "tid %d: E(%s) closes B(%s)", tid, e.name, stack.back());
          stack.pop_back();
        }
      }
    }
    CHECK_MSG(stack.empty(), "tid %d: %zu unbalanced B events", tid,
              stack.size());
  }
  return scan;
}

void check_trace_stream() {
  obs::TraceSession& ts = obs::TraceSession::instance();
  ts.clear();
  ts.enable();
  {
    const CsrMatrix a = test_matrix();
    ThreadCountGuard guard(4);
    obs::ExecObs eo;
    IluOptions iopts = base_opts(4);
    iopts.exec_obs = &eo;
    Factorization f = ilu_factor(a, iopts);
    const auto r = random_vector(a.rows(), 0xCAFE);
    std::vector<value_t> z(r.size());
    SolveWorkspace ws;
    ilu_apply(f, r, z, ws);
    // A short Krylov run for the per-iteration spans.
    SolverOptions so;
    so.max_iterations = 3;
    so.tolerance = 0;
    std::vector<value_t> x(r.size(), 0);
    pcg(
        a, r, x,
        [&](std::span<const value_t> rr, std::span<value_t> zz) {
          ilu_apply(f, rr, zz, ws);
        },
        so);
  }
  ts.disable();

  CHECK_MSG(ts.event_count() > 0, "no trace events recorded");
  const auto [saw_level_span, saw_iter_span] = scan_trace(ts);
  CHECK_MSG(saw_level_span, "no per-level sweep spans recorded");
  CHECK_MSG(saw_iter_span, "no Krylov iteration spans recorded");

  std::ostringstream os;
  ts.write_chrome_json(os);
  const std::string json = os.str();
  CHECK_MSG(json.find("\"traceEvents\"") != std::string::npos,
            "chrome export missing traceEvents");
  // Structural smoke parse: brackets and braces must balance.
  long braces = 0, brackets = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_str = !in_str;
    if (in_str) continue;
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  CHECK_MSG(braces == 0 && brackets == 0,
            "chrome export unbalanced: braces %ld brackets %ld", braces,
            brackets);
  ts.clear();
}

/// A deep matrix whose default factor carries narrow-level regime tags:
/// the segment walk traces its levels like an untagged sweep does.
void check_tagged_trace(const CsrMatrix& deep) {
  obs::TraceSession& ts = obs::TraceSession::instance();
  ts.clear();
  ts.enable();
  {
    ThreadCountGuard guard(4);
    obs::ExecObs eo;
    IluOptions iopts = base_opts(4);
    iopts.exec_obs = &eo;
    const Factorization f = ilu_factor(deep, iopts);
    CHECK_MSG(f.fwd.hybrid() && f.bwd.hybrid(), "deep default untagged");
    const auto r = random_vector(deep.rows(), 0xCAFE);
    std::vector<value_t> z(r.size());
    SolveWorkspace ws;
    ilu_apply(f, r, z, ws);
  }
  ts.disable();
  CHECK_MSG(scan_trace(ts).saw_level_span,
            "no per-level spans from the tagged sweep");
  ts.clear();
}

/// Spans named `name` in the recorded stream: total count and the number of
/// distinct threads that emitted one.
std::pair<int, int> span_count(const obs::TraceSession& ts, const char* name) {
  int spans = 0, threads = 0;
  for (const auto& [tid, events] : ts.snapshot()) {
    int mine = 0;
    for (const obs::TraceEvent& e : events) {
      mine += e.ph == 'B' && std::strcmp(e.name, name) == 0 ? 1 : 0;
    }
    spans += mine;
    threads += mine > 0 ? 1 : 0;
  }
  return {spans, threads};
}

/// The numeric phase splits into upper stage, lower pass and corner in a
/// trace, and the lower pass runs on the runtime team: a refactor after
/// omp_set_num_threads(team) below a 4-thread plan spawns at most `team`
/// factor_lower threads.
void check_lower_trace(const CsrMatrix& a) {
  obs::TraceSession& ts = obs::TraceSession::instance();
  ThreadCountGuard guard(4);
  Factorization f = ilu_factor(a, base_opts(4));
  CHECK_MSG(f.plan.num_lower_rows() >= 8, "lower trace: %d lower rows",
            f.plan.num_lower_rows());
  for (const int team : {4, 2, 1}) {
    ThreadCountGuard runtime(team);
    ts.clear();
    ts.enable();
    ilu_refactor(f, a);
    ts.disable();
    scan_trace(ts);
    const auto [lower_spans, lower_threads] = span_count(ts, "factor_lower");
    CHECK_MSG(lower_spans >= 1 && lower_spans == lower_threads,
              "team %d: %d factor_lower spans on %d threads", team,
              lower_spans, lower_threads);
    CHECK_MSG(lower_threads <= team, "team %d: %d factor_lower threads",
              team, lower_threads);
    CHECK_MSG(span_count(ts, "factor_corner").first == 1,
              "team %d: factor_corner spans != 1", team);
  }
  ts.clear();
}

/// Setup attribution: every ilu_prepare phase is one span in a trace. ILU(0)
/// permutes A straight into the factor (no symbolic copy, the scatter map
/// built in the same pass); ILU(1) runs the separate symbolic and
/// scatter-map phases.
void check_prepare_spans(const CsrMatrix& a) {
  obs::TraceSession& ts = obs::TraceSession::instance();
  ThreadCountGuard guard(4);
  for (const int fill : {0, 1}) {
    ts.clear();
    ts.enable();
    IluOptions opts = base_opts(4);
    opts.fill_level = fill;
    const Factorization f = ilu_prepare(a, opts);
    ts.disable();
    for (const char* name :
         {"prepare_order", "prepare_plan", "prepare_permute",
          "prepare_fwd_schedule", "prepare_bwd_schedule", "prepare_tags"}) {
      CHECK_MSG(span_count(ts, name).first == 1, "fill %d: %s spans != 1",
                fill, name);
    }
    for (const char* name : {"prepare_symbolic", "prepare_scatter_map"}) {
      CHECK_MSG(span_count(ts, name).first == (fill > 0 ? 1 : 0),
                "fill %d: %s spans", fill, name);
    }
  }
  ts.clear();
}

// --- (c) counter accounting identities -----------------------------------

void check_counter_identities(const CsrMatrix& a, LevelRegime be, int t) {
  ThreadCountGuard guard(t);
  const char* bname = be == LevelRegime::kP2P ? "p2p" : "barrier";
  obs::ExecObs eo;
  IluOptions iopts = base_opts(t);
  iopts.exec_obs = &eo;
  Factorization f = ilu_factor(a, iopts);
  // The identities below describe uniform tags: pin them.
  tag_all_levels(f, be);
  eo.reset();  // keep the sweep arithmetic below to the applies

  const auto r = random_vector(a.rows(), 0xB00);
  std::vector<value_t> z(r.size());
  SolveWorkspace ws;
  constexpr int kSweeps = 3;
  for (int i = 0; i < kSweeps; ++i) ilu_apply(f, r, z, ws);

  for (const obs::Region reg :
       {obs::Region::kForward, obs::Region::kBackward}) {
    const obs::ExecStats& st = eo.stats(reg);
    const char* rname = obs::region_name(reg);
    CHECK_MSG(st.sweeps == static_cast<std::uint64_t>(kSweeps),
              "%s %s t=%d sweeps %llu", bname, rname, t,
              static_cast<unsigned long long>(st.sweeps));
    const obs::WaitCounters& c = st.total;
    CHECK_MSG(c.waits == c.waits_immediate + c.waits_stalled,
              "%s %s t=%d waits identity", bname, rname, t);
    CHECK_MSG(c.spins >= c.waits_stalled, "%s %s t=%d spins vs stalled",
              bname, rname, t);
    CHECK_MSG(c.yields <= c.spins, "%s %s t=%d yields vs spins", bname, rname,
              t);
    CHECK_MSG(c.busy_ns > 0, "%s %s t=%d zero busy time", bname, rname, t);
    CHECK_MSG(st.wall_ns > 0, "%s %s t=%d zero wall time", bname, rname, t);

    // Per-thread slots merge to the total, field by field.
    obs::WaitCounters sum;
    for (const obs::WaitCounters& pc : st.per_thread) sum.merge(pc);
    CHECK_MSG(sum.waits == c.waits && sum.spins == c.spins &&
                  sum.busy_ns == c.busy_ns && sum.wait_ns == c.wait_ns &&
                  sum.barrier_ns == c.barrier_ns &&
                  sum.barrier_waits == c.barrier_waits,
              "%s %s t=%d per-thread sum != total", bname, rname, t);

    const ExecSchedule& s =
        reg == obs::Region::kForward ? f.fwd : f.bwd;
    CHECK_MSG(st.levels == s.num_levels, "%s %s t=%d levels", bname, rname, t);
    if (t == 1) {
      // Serial dispatch: no synchronization of either kind.
      CHECK_MSG(c.waits == 0 && c.barrier_waits == 0,
                "%s %s t=1 sync counters nonzero", bname, rname);
    } else if (be == LevelRegime::kP2P) {
      // One wait_for call per stored (pruned) dependency, per sweep.
      CHECK_MSG(c.waits == static_cast<std::uint64_t>(kSweeps) *
                               static_cast<std::uint64_t>(s.deps_kept),
                "%s %s t=%d waits %llu != sweeps*deps_kept %llu", bname,
                rname, t, static_cast<unsigned long long>(c.waits),
                static_cast<unsigned long long>(kSweeps) *
                    static_cast<unsigned long long>(s.deps_kept));
      CHECK_MSG(c.barrier_waits == 0, "%s %s t=%d p2p barrier_waits", bname,
                rname, t);
    } else {
      // Every thread crosses every barrier between two levels, every sweep
      // (the region join follows the last level).
      CHECK_MSG(c.barrier_waits ==
                    static_cast<std::uint64_t>(kSweeps) *
                        static_cast<std::uint64_t>(t) *
                        static_cast<std::uint64_t>(s.num_levels - 1),
                "%s %s t=%d barrier_waits %llu != sweeps*t*(levels-1)", bname,
                rname, t, static_cast<unsigned long long>(c.barrier_waits));
      CHECK_MSG(c.waits == 0, "%s %s t=%d barrier-path waits", bname, rname,
                t);
    }

    // Per-level attribution covers every level and accounts the rows.
    CHECK_MSG(st.level_rows.size() == static_cast<std::size_t>(s.num_levels),
              "%s %s t=%d level_rows size", bname, rname, t);
    std::uint64_t rows = 0;
    for (index_t lr : st.level_rows) rows += static_cast<std::uint64_t>(lr);
    CHECK_MSG(rows == static_cast<std::uint64_t>(s.num_rows()),
              "%s %s t=%d level_rows sum", bname, rname, t);
    CHECK_MSG(st.critical_path_ns <= st.wall_ns * static_cast<std::uint64_t>(
                                                      std::max(1, t)),
              "%s %s t=%d critical path exceeds t*wall", bname, rname, t);
  }
}

/// Same-tag level runs of a tagged schedule (each but the first opens with
/// a barrier).
std::uint64_t regime_segments(const ExecSchedule& s) {
  std::uint64_t segs = 0;
  for (index_t l = 0; l < s.num_levels; ++l) {
    if (l == 0 || s.level_regime(l) != s.level_regime(l - 1)) ++segs;
  }
  return segs;
}

/// Default (tagged) factor of a deep matrix: every stored wait is called
/// once per sweep, and every thread crosses each segment-entry barrier
/// after the first segment once per sweep (the default rule tags only
/// kSerial/kP2P, so no per-level barriers).
void check_tagged_counter_identities(const CsrMatrix& deep, int t) {
  ThreadCountGuard guard(t);
  obs::ExecObs eo;
  IluOptions iopts = base_opts(t);
  iopts.exec_obs = &eo;
  const Factorization f = ilu_factor(deep, iopts);
  CHECK_MSG(f.fwd.hybrid() && f.bwd.hybrid(), "t=%d deep default untagged",
            t);
  eo.reset();

  const auto r = random_vector(deep.rows(), 0xB01);
  std::vector<value_t> z(r.size());
  SolveWorkspace ws;
  constexpr std::uint64_t kSweeps = 3;
  for (std::uint64_t i = 0; i < kSweeps; ++i) ilu_apply(f, r, z, ws);

  for (const obs::Region reg :
       {obs::Region::kForward, obs::Region::kBackward}) {
    const obs::ExecStats& st = eo.stats(reg);
    const obs::WaitCounters& c = st.total;
    const ExecSchedule& s = reg == obs::Region::kForward ? f.fwd : f.bwd;
    const char* rname = obs::region_name(reg);
    CHECK_MSG(st.sweeps == kSweeps, "tagged %s t=%d sweeps", rname, t);
    CHECK_MSG(c.waits == c.waits_immediate + c.waits_stalled,
              "tagged %s t=%d waits identity", rname, t);
    CHECK_MSG(c.waits == kSweeps * static_cast<std::uint64_t>(s.deps_kept),
              "tagged %s t=%d waits %llu != sweeps*deps_kept", rname, t,
              static_cast<unsigned long long>(c.waits));
    const std::uint64_t crossings = kSweeps *
                                    static_cast<std::uint64_t>(t) *
                                    (regime_segments(s) - 1);
    CHECK_MSG(c.barrier_waits == crossings,
              "tagged %s t=%d barrier_waits %llu != sweeps*t*(segments-1) "
              "%llu",
              rname, t, static_cast<unsigned long long>(c.barrier_waits),
              static_cast<unsigned long long>(crossings));
    std::uint64_t rows = 0;
    for (index_t lr : st.level_rows) rows += static_cast<std::uint64_t>(lr);
    CHECK_MSG(rows == static_cast<std::uint64_t>(s.num_rows()),
              "tagged %s t=%d level_rows sum", rname, t);
  }
}

// --- (d) deterministic metrics -------------------------------------------

void check_metrics_determinism(const CsrMatrix& a) {
  // Merge-order invariance on synthetic registries.
  obs::MetricsRegistry r1, r2, r3;
  r1.add("x", 3);
  r1.record("h", 0);
  r1.record("h", 7);
  r2.add("x", 5);
  r2.add("y", 1);
  r2.record("h", 1u << 20);
  r3.record("g", 42);
  obs::MetricsRegistry ab, ba;
  ab.merge(r1);
  ab.merge(r2);
  ab.merge(r3);
  ba.merge(r3);
  ba.merge(r2);
  ba.merge(r1);
  CHECK_MSG(ab == ba, "registry merge is order-dependent");
  CHECK(ab.counters().at("x") == 8);
  CHECK(ab.histograms().at("h").total() == 3);

  // Log2 bucket arithmetic.
  obs::FixedHistogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  CHECK(h.count(0) == 1 && h.count(1) == 1 && h.count(2) == 2);
  CHECK(obs::FixedHistogram::bucket_of(~std::uint64_t{0}) ==
        obs::FixedHistogram::kBuckets - 1);

  // Exported metrics: identical key sets and identical schedule-shape
  // histograms across thread counts (the timing counters differ, the
  // structure must not), and the deterministic counters repeat exactly.
  const auto run_metrics = [&](int t) {
    ThreadCountGuard guard(t);
    obs::ExecObs eo;
    IluOptions iopts = base_opts(t);
    iopts.exec_obs = &eo;
    Factorization f = ilu_factor(a, iopts);
    eo.reset();
    const auto r = random_vector(a.rows(), 0xD1CE);
    std::vector<value_t> z(r.size());
    SolveWorkspace ws;
    ilu_apply(f, r, z, ws);
    obs::MetricsRegistry reg;
    eo.export_metrics(reg);
    return reg;
  };
  const obs::MetricsRegistry m2 = run_metrics(2);
  const obs::MetricsRegistry m4 = run_metrics(4);
  const obs::MetricsRegistry m4b = run_metrics(4);

  std::set<std::string> k2, k4;
  for (const auto& [name, v] : m2.counters()) k2.insert(name);
  for (const auto& [name, v] : m4.counters()) k4.insert(name);
  CHECK_MSG(k2 == k4, "metric key sets differ across thread counts");
  CHECK_MSG(m2.histograms().at("exec.fwd.rows_per_level") ==
                m4.histograms().at("exec.fwd.rows_per_level"),
            "rows_per_level differs across thread counts");
  // Deterministic counters repeat bit-for-bit between identical runs.
  for (const char* key : {"exec.fwd.waits", "exec.fwd.sweeps",
                          "exec.bwd.waits", "exec.bwd.sweeps"}) {
    CHECK_MSG(m4.counters().at(key) == m4b.counters().at(key),
              "counter %s not deterministic", key);
  }

  std::ostringstream os;
  m4.export_json(os);
  CHECK_MSG(os.str().find("\"counters\"") != std::string::npos,
            "metrics export missing counters object");
}

}  // namespace

int main() {
  const CsrMatrix a = test_matrix();
  for (const LevelRegime be : {LevelRegime::kP2P, LevelRegime::kBarrier}) {
    for (const int t : {1, 2, 4, 8}) {
      check_parity(a, be, t);
      check_counter_identities(a, be, t);
    }
  }
  const CsrMatrix deep = gen::long_chain(1200, 10, 4, 3);
  for (const int t : {2, 4, 8}) check_tagged_counter_identities(deep, t);
  check_trace_stream();
  check_tagged_trace(deep);
  check_lower_trace(gen::power_system(800, 16, 48, 9));
  check_prepare_spans(a);
  check_metrics_determinism(a);
  return javelin::test::finish("test_obs");
}
