// Randomized property test closing the loop between the static verifier
// and the execution layer:
//
//   random dependency DAG -> level sets -> schedule -> verifier CLEAN
//                                                   -> execution BITWISE
//                                                      equal to the serial
//                                                      reference
//
// in one loop, so a verifier false-positive (flagging a correct build), a
// builder bug (schedule that verifies but mis-executes — a verifier
// false-NEGATIVE by implication), and a level-set bug all fail here. A
// seeded single-defect mutation is also run each trial: if the verifier
// clears a mutant (soundness breach) the mutant is EXECUTED and held to
// bitwise parity; flagged mutants are never executed (they may deadlock —
// that is the point).
//
// Trials are seeded and, on failure, shrunk: the matrix generator draws
// each row's dependencies from a per-row stream keyed on (seed, row), so a
// size-n' prefix of the size-n matrix is itself a valid test case and the
// shrink loop just re-runs smaller n until the failure disappears, then
// prints the minimal reproducing (seed, n, T, chunk, barrier). Half the
// trials tag every level kBarrier (CSR-LS), which prunes every wait.
//
// A second part holds every wait list the parallel builder produces over
// the suite matrices to the serial builder it replaced (the oracle below).
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "javelin/exec/run.hpp"
#include "javelin/gen/generators.hpp"
#include "javelin/graph/levels.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/sparse/csr.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/verify/mutate.hpp"
#include "javelin/verify/verify.hpp"
#include "test_util.hpp"

using namespace javelin;

namespace {

constexpr std::size_t uz(std::int64_t i) {
  return static_cast<std::size_t>(i);
}

std::uint64_t splitmix(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Random lower-triangular DAG with unit diagonal, row r's dependencies
/// drawn from a stream keyed (seed, r) — prefix-stable so shrinking by n
/// reuses the same rows.
CsrMatrix gen_dag(std::uint64_t seed, index_t n) {
  std::vector<index_t> row_ptr(uz(n) + 1, 0);
  std::vector<index_t> cols;
  std::vector<value_t> vals;
  std::vector<index_t> picks;
  for (index_t r = 0; r < n; ++r) {
    std::uint64_t st = seed ^ (0xD1B54A32D192ED03ULL *
                               static_cast<std::uint64_t>(r + 1));
    const index_t want = static_cast<index_t>(splitmix(st) % 5);
    picks.clear();
    for (index_t k = 0; k < want && r > 0; ++k) {
      picks.push_back(static_cast<index_t>(
          splitmix(st) % static_cast<std::uint64_t>(r)));
    }
    std::sort(picks.begin(), picks.end());
    picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
    for (index_t d : picks) {
      cols.push_back(d);
      // Coefficients in [0.25, 1): large enough that a dropped dependency
      // shifts the result far beyond rounding noise.
      vals.push_back(0.25 + 0.75 * (static_cast<value_t>(splitmix(st) >> 11) /
                                    9007199254740992.0));
    }
    cols.push_back(r);
    vals.push_back(1.0);
    row_ptr[uz(r) + 1] = static_cast<index_t>(cols.size());
  }
  return CsrMatrix(n, n, std::move(row_ptr), std::move(cols),
                   std::move(vals));
}

/// Dependency-respecting reference: rows in natural order (every dependency
/// of a lower-triangular row is a smaller row). Per-row arithmetic is the
/// same expression, in the same CSR order, as the scheduled run — the only
/// degree of freedom is WHEN a row runs, which is exactly what the schedule
/// must get right.
void eval_row(const CsrMatrix& m, std::vector<value_t>& x, index_t r) {
  value_t acc = 1.0;
  const auto cols = m.row_cols(r);
  const auto vals = m.row_vals(r);
  for (std::size_t k = 0; k < cols.size(); ++k) {
    if (cols[k] == r) continue;
    acc += vals[k] * x[uz(cols[k])];
  }
  x[uz(r)] = acc;
}

struct Trial {
  std::uint64_t seed = 0;
  index_t n = 0;
  int threads = 0;
  index_t chunk = 0;
  bool barrier = false;  ///< every level tagged kBarrier (CSR-LS)
};

/// Empty = pass; otherwise a description of what broke.
std::string run_trial(const Trial& tr) {
  const CsrMatrix m = gen_dag(tr.seed, tr.n);
  const DepsFn deps = lower_triangular_deps(m);
  const LevelSets ls = compute_level_sets_lower(m);
  ExecSchedule s = build_exec_schedule(tr.n, ls.level_ptr, ls.rows_by_level,
                                       deps, tr.threads, tr.chunk);
  if (tr.barrier) {
    apply_level_tags(s, deps,
                     std::vector<std::uint8_t>(
                         uz(s.num_levels),
                         static_cast<std::uint8_t>(LevelRegime::kBarrier)));
  }

  const verify::VerifyReport rep = verify::verify_schedule(s, deps);
  if (!rep.ok()) {
    return "verifier flagged a correct build: " + rep.summary();
  }

  std::vector<value_t> ref(uz(tr.n));
  for (index_t r = 0; r < tr.n; ++r) eval_row(m, ref, r);

  // NaN seeding makes a mis-ordered read self-evident even when the
  // interleaving would happen to produce the right value.
  const value_t nan = std::numeric_limits<value_t>::quiet_NaN();
  std::vector<value_t> x(uz(tr.n), nan);
  {
    ThreadCountGuard guard(tr.threads);
    exec_run(s, [&](index_t r, int) { eval_row(m, x, r); });
  }
  if (!javelin::test::bitwise_equal(x, ref)) {
    return "scheduled execution diverged from the serial reference";
  }

  // Mutation soundness: a mutant the verifier CLEARS must still execute to
  // parity; a flagged mutant is never executed (it may deadlock).
  ExecSchedule mut = s;
  std::uint64_t st = tr.seed ^ 0xABCDEF12ULL;
  const auto kind = verify::kAllMutations[splitmix(st) % 6];
  const verify::MutationResult res =
      verify::apply_mutation(mut, kind, deps, splitmix(st));
  if (res.applied) {
    const verify::VerifyReport mrep = verify::verify_schedule(mut, deps);
    if (mrep.ok()) {
      std::vector<value_t> y(uz(tr.n), nan);
      ThreadCountGuard guard(tr.threads);
      exec_run(mut, [&](index_t r, int) { eval_row(m, y, r); });
      if (!javelin::test::bitwise_equal(y, ref)) {
        return std::string("verifier cleared a mutant (") +
               verify::mutation_name(kind) +
               ") that does not execute to parity";
      }
    }
  }
  return {};
}

void shrink_and_report(Trial tr, const std::string& first_failure) {
  std::printf("  shrinking failing trial (n=%d): %s\n",
              static_cast<int>(tr.n), first_failure.c_str());
  bool improved = true;
  while (improved) {
    improved = false;
    for (const index_t cand :
         {tr.n / 2, (tr.n * 3) / 4, tr.n - 1}) {
      if (cand < 2 || cand >= tr.n) continue;
      Trial smaller = tr;
      smaller.n = cand;
      if (!run_trial(smaller).empty()) {
        tr = smaller;
        improved = true;
        break;
      }
    }
  }
  const std::string msg = run_trial(tr);
  CHECK_MSG(false,
            "minimal repro: seed=0x%llx n=%d T=%d chunk=%d barrier=%d: %s",
            static_cast<unsigned long long>(tr.seed),
            static_cast<int>(tr.n), tr.threads, static_cast<int>(tr.chunk),
            tr.barrier ? 1 : 0, msg.c_str());
}

// --- wait-list oracle --------------------------------------------------------
//
// The production wait-list builder runs one worker per consumer thread and
// stitches their lists; the oracle below is the serial two-pass (count, fill)
// builder it replaced. Every schedule and fused companion must carry exactly
// the oracle's waits, whatever team builds it.

struct Waits {
  std::vector<index_t> ptr, thread, count;
  index_t total = 0, kept = 0;
  bool operator==(const Waits&) const = default;
};

Waits oracle_waits(int T, std::span<const index_t> consumer_thread_ptr,
                   const WaitSeedFn& seed, const WaitDepsFn& deps) {
  Waits w;
  const index_t n_consumers = consumer_thread_ptr[uz(T)];
  w.ptr.assign(uz(n_consumers) + 1, 0);
  std::vector<index_t> need(uz(T), 0);
  std::vector<std::uint64_t> need_stamp(uz(T), 0);
  std::uint64_t gen = 0;
  std::vector<index_t> touched;
  std::vector<index_t> last_wait(uz(T), 0);
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) {
      for (std::size_t i = 1; i < w.ptr.size(); ++i) w.ptr[i] += w.ptr[i - 1];
      w.thread.assign(uz(w.ptr.back()), 0);
      w.count.assign(uz(w.ptr.back()), 0);
    }
    for (int t = 0; t < T; ++t) {
      std::fill(last_wait.begin(), last_wait.end(), 0);
      if (seed) seed(t, last_wait);
      for (index_t c = consumer_thread_ptr[uz(t)];
           c < consumer_thread_ptr[uz(t) + 1]; ++c) {
        ++gen;
        touched.clear();
        deps(t, c, [&](index_t ot, index_t cnt) {
          if (pass == 0) ++w.total;
          if (need_stamp[uz(ot)] != gen) {
            need_stamp[uz(ot)] = gen;
            need[uz(ot)] = cnt;
            touched.push_back(ot);
          } else {
            need[uz(ot)] = std::max(need[uz(ot)], cnt);
          }
        });
        std::sort(touched.begin(), touched.end());
        index_t k = pass == 1 ? w.ptr[uz(c)] : 0;
        index_t kept = 0;
        for (index_t ot : touched) {
          const index_t cnt = need[uz(ot)];
          if (cnt <= last_wait[uz(ot)]) continue;
          last_wait[uz(ot)] = cnt;
          if (pass == 1) {
            w.thread[uz(k)] = ot;
            w.count[uz(k)] = cnt;
            ++k;
          }
          ++kept;
        }
        if (pass == 0) {
          w.ptr[uz(c) + 1] = kept;
          w.kept += kept;
        }
      }
    }
  }
  return w;
}

/// Oracle waits of an UNTAGGED schedule with the item layout of `s`: an
/// item needs, per producer thread, the max item position of its rows'
/// cross-thread dependencies.
Waits oracle_schedule_waits(const ExecSchedule& s, const DepsFn& deps) {
  std::vector<index_t> owner, posn;
  s.producer_positions(owner, posn);
  return oracle_waits(
      s.threads, s.thread_ptr, {},
      [&](int t, index_t i,
          const std::function<void(index_t, index_t)>& yield) {
        for (index_t k = s.item_ptr[uz(i)]; k < s.item_ptr[uz(i) + 1]; ++k) {
          deps(s.rows[uz(k)], [&](index_t d) {
            const index_t ot = owner[uz(d)];
            if (ot == kInvalidIndex || ot == static_cast<index_t>(t)) return;
            yield(ot, posn[uz(d)] + 1);
          });
        }
      });
}

Waits waits_of(const ExecSchedule& s) {
  return {s.wait_ptr, s.wait_thread, s.wait_count, s.deps_total, s.deps_kept};
}

/// The fused companion's SpMV wait set, or its backward-on-forward set.
Waits fused_waits(const FusedApplySpmv& fs, bool fwd_set = false) {
  if (fwd_set) {
    return {fs.fwd_wait_ptr, fs.fwd_wait_thread, fs.fwd_wait_count,
            fs.fwd_deps_total, fs.fwd_deps_kept};
  }
  return {fs.wait_ptr, fs.wait_thread, fs.wait_count, fs.deps_total,
          fs.deps_kept};
}

/// `s` with the oracle's untagged waits, then `tags` installed through
/// apply_level_tags (which prunes the uniform waits for the regimes).
ExecSchedule with_oracle_waits(ExecSchedule s, const Waits& o,
                               const DepsFn& deps,
                               const std::vector<std::uint8_t>& tags) {
  s.level_tags.clear();
  s.seg_level_ptr.clear();
  s.seg_items.clear();
  s.wait_ptr = o.ptr;
  s.wait_thread = o.thread;
  s.wait_count = o.count;
  s.deps_total = o.total;
  s.deps_kept = o.kept;
  if (!tags.empty()) apply_level_tags(s, deps, tags);
  return s;
}

/// The fused companion's two wait sets, derived the way
/// build_fused_apply_spmv derives them, from its own chunk layout.
std::pair<Waits, Waits> oracle_fused_waits(const FusedApplySpmv& fs,
                                           const ExecSchedule& bwd,
                                           const ExecSchedule* fwd,
                                           const TwoStagePlan& plan,
                                           const CsrMatrix& a) {
  const int T = fs.threads;
  std::vector<index_t> owner, item_of;
  bwd.producer_positions(owner, item_of);
  const std::vector<index_t> to_perm = invert_permutation(plan.perm);
  const auto seed_from = [](const ExecSchedule& s) {
    return [&s](int t, std::span<index_t> last_wait) {
      for (index_t i = s.thread_ptr[uz(t)]; i < s.thread_ptr[uz(t) + 1]; ++i) {
        for (index_t w = s.wait_ptr[uz(i)]; w < s.wait_ptr[uz(i) + 1]; ++w) {
          index_t& lw = last_wait[uz(s.wait_thread[uz(w)])];
          lw = std::max(lw, s.wait_count[uz(w)]);
        }
      }
    };
  };
  Waits spmv = oracle_waits(
      T, fs.thread_ptr, seed_from(bwd),
      [&](int t, index_t c,
          const std::function<void(index_t, index_t)>& yield) {
        for (index_t r = fs.chunk_begin[uz(c)]; r < fs.chunk_end[uz(c)]; ++r) {
          for (index_t col : a.row_cols(r)) {
            const index_t pr = to_perm[uz(col)];
            if (owner[uz(pr)] == static_cast<index_t>(t)) continue;
            yield(owner[uz(pr)], item_of[uz(pr)] + 1);
          }
        }
      });
  Waits fwd_set;
  if (fwd != nullptr && fs.fwd_synced) {
    std::vector<index_t> fowner, fitem;
    fwd->producer_positions(fowner, fitem);
    fwd_set = oracle_waits(
        T, bwd.thread_ptr, seed_from(*fwd),
        [&](int t, index_t i,
            const std::function<void(index_t, index_t)>& yield) {
          for (index_t k = bwd.item_ptr[uz(i)]; k < bwd.item_ptr[uz(i) + 1];
               ++k) {
            const index_t r = bwd.rows[uz(k)];
            if (fowner[uz(r)] == static_cast<index_t>(t)) continue;
            yield(fowner[uz(r)], fitem[uz(r)] + 1);
          }
        });
  }
  return {std::move(spmv), std::move(fwd_set)};
}

/// Tags for the tagged variant: the default narrow-level rule when it fires
/// on `s`, else a fixed mix of every regime so tagging is always exercised.
std::vector<std::uint8_t> test_tags(const ExecSchedule& s, index_t alpha) {
  std::vector<std::uint8_t> tags = narrow_level_tags(s, alpha);
  if (!tags.empty() || s.num_levels < 3) return tags;
  tags.resize(uz(s.num_levels));
  for (index_t l = 0; l < s.num_levels; ++l) {
    constexpr LevelRegime kMix[] = {LevelRegime::kP2P, LevelRegime::kSerial,
                                    LevelRegime::kBarrier};
    tags[uz(l)] = static_cast<std::uint8_t>(kMix[l % 3]);
  }
  return tags;
}

/// One suite matrix: the prepared schedules retargeted to every team size,
/// built by a 1- and a 4-thread builder team, against the oracle.
void check_wait_oracle(const std::string& name, const CsrMatrix& a) {
  IluOptions opts;
  opts.num_threads = 4;
  const Factorization f = ilu_prepare(a, opts);
  // No lower stage: the only plan shape with the fused forward wait set.
  opts.lower_stage = false;
  const Factorization g = ilu_prepare(a, opts);
  const DepsFn low = lower_triangular_deps(f.lu);
  const DepsFn up = upper_triangular_deps(f.lu);
  const DepsFn glow = lower_triangular_deps(g.lu);
  const DepsFn gup = upper_triangular_deps(g.lu);
  const index_t alpha = f.plan.min_level_rows;
  const auto untagged = [](ExecSchedule s) {
    s.level_tags.clear();  // retarget then rebuilds the uniform waits
    return s;
  };

  // The factor's own schedules, as ilu_prepare built them.
  {
    const ExecSchedule fu = retarget(untagged(f.fwd), low, f.fwd.threads);
    const ExecSchedule bu = retarget(untagged(f.bwd), up, f.bwd.threads);
    CHECK_MSG(waits_of(with_oracle_waits(fu, oracle_schedule_waits(fu, low),
                                         low, f.fwd.level_tags)) ==
                  waits_of(f.fwd),
              "%s f.fwd", name.c_str());
    CHECK_MSG(waits_of(with_oracle_waits(bu, oracle_schedule_waits(bu, up), up,
                                         f.bwd.level_tags)) == waits_of(f.bwd),
              "%s f.bwd", name.c_str());
  }

  // Every wait set at team size T, built by the current builder team.
  struct Built {
    ExecSchedule fwd, bwd, fwd_tagged, bwd_tagged, gfwd, gbwd;
    FusedApplySpmv fs, gs;
  };
  const auto build_all = [&](int T) {
    Built b;
    b.fwd = retarget(untagged(f.fwd), low, T);
    b.bwd = retarget(untagged(f.bwd), up, T);
    b.fwd_tagged = b.fwd;
    b.bwd_tagged = b.bwd;
    const auto ftags = test_tags(b.fwd, alpha);
    const auto btags = test_tags(b.bwd, alpha);
    if (!ftags.empty()) apply_level_tags(b.fwd_tagged, low, ftags);
    if (!btags.empty()) apply_level_tags(b.bwd_tagged, up, btags);
    // Re-tagging a tagged schedule rebuilds its waits through the builder.
    if (b.fwd_tagged.hybrid()) apply_level_tags(b.fwd_tagged, low, ftags);
    b.gfwd = retarget(untagged(g.fwd), glow, T);
    b.gbwd = retarget(untagged(g.bwd), gup, T);
    b.fs = build_fused_apply_spmv(b.bwd, f.plan, a);
    b.gs = build_fused_apply_spmv(b.gbwd, g.plan, a, kDefaultSpmvChunkRows,
                                  &b.gfwd);
    return b;
  };
  const auto all_waits = [](const Built& b) {
    return std::vector<Waits>{
        waits_of(b.fwd),        waits_of(b.bwd),  waits_of(b.fwd_tagged),
        waits_of(b.bwd_tagged), waits_of(b.gfwd), waits_of(b.gbwd),
        fused_waits(b.fs),      fused_waits(b.gs),
        fused_waits(b.gs, /*fwd_set=*/true)};
  };

  for (const int T : {1, 2, 3, 4, 8}) {
    Built serial, parallel;
    {
      ThreadCountGuard builder(1);
      serial = build_all(T);
    }
    {
      ThreadCountGuard builder(4);
      parallel = build_all(T);
    }
    CHECK_MSG(all_waits(serial) == all_waits(parallel),
              "%s T=%d: 1- and 4-thread builder teams differ", name.c_str(),
              T);

    const Built& b = serial;
    const Waits ofwd = oracle_schedule_waits(b.fwd, low);
    const Waits obwd = oracle_schedule_waits(b.bwd, up);
    CHECK_MSG(ofwd == waits_of(b.fwd), "%s fwd T=%d", name.c_str(), T);
    CHECK_MSG(obwd == waits_of(b.bwd), "%s bwd T=%d", name.c_str(), T);
    CHECK_MSG(waits_of(with_oracle_waits(b.fwd, ofwd, low,
                                         b.fwd_tagged.level_tags)) ==
                  waits_of(b.fwd_tagged),
              "%s tagged fwd T=%d", name.c_str(), T);
    CHECK_MSG(waits_of(with_oracle_waits(b.bwd, obwd, up,
                                         b.bwd_tagged.level_tags)) ==
                  waits_of(b.bwd_tagged),
              "%s tagged bwd T=%d", name.c_str(), T);
    if (T == 1) continue;  // a 1-thread companion has no waits
    CHECK_MSG(oracle_fused_waits(b.fs, b.bwd, nullptr, f.plan, a).first ==
                  fused_waits(b.fs),
              "%s fused spmv T=%d", name.c_str(), T);
    const auto [gspmv, gfwd_set] =
        oracle_fused_waits(b.gs, b.gbwd, &b.gfwd, g.plan, a);
    CHECK_MSG(b.gs.fwd_synced && gspmv == fused_waits(b.gs) &&
                  gfwd_set == fused_waits(b.gs, /*fwd_set=*/true),
              "%s fused (no lower stage) T=%d", name.c_str(), T);
  }
}

}  // namespace

int main() {
  constexpr int kTrials = 120;
  constexpr index_t kChunks[] = {1, 2, 3, 5, 8, 32};
  for (int trial = 0; trial < kTrials; ++trial) {
    std::uint64_t st = 0x5EED0000ULL + static_cast<std::uint64_t>(trial);
    Trial tr;
    tr.seed = splitmix(st);
    tr.n = static_cast<index_t>(16 + splitmix(st) % 285);
    tr.threads = static_cast<int>(1 + splitmix(st) % 8);
    tr.chunk = kChunks[splitmix(st) % 6];
    tr.barrier = (splitmix(st) & 1) == 0;
    const std::string failure = run_trial(tr);
    if (!failure.empty()) {
      shrink_and_report(tr, failure);
      break;  // one minimal repro is worth more than a wall of failures
    }
  }
  // The wait-list oracle over the suite. Debug and sanitizer builds run
  // 10-100x slower than Release; they sweep the same cases on smaller
  // matrices.
  gen::SuiteOptions so;
#ifdef NDEBUG
  so.scale = 0.25;
#else
  so.scale = 0.02;
#endif
  for (const std::string& name : gen::suite_names()) {
    check_wait_oracle(name, gen::make_suite_matrix(name, so).matrix);
  }
  return javelin::test::finish("test_schedprop");
}
