#include "javelin/exec/schedule.hpp"

#include <algorithm>

#include "javelin/graph/levels.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/support/scan.hpp"

namespace javelin {

namespace {
constexpr std::size_t uz(index_t i) { return static_cast<std::size_t>(i); }
}  // namespace

void ExecSchedule::producer_positions(std::vector<index_t>& owner,
                                      std::vector<index_t>& item_of) const {
  owner.assign(static_cast<std::size_t>(n_total), kInvalidIndex);
  item_of.assign(static_cast<std::size_t>(n_total), kInvalidIndex);
  for (int t = 0; t < threads; ++t) {
    for (index_t i = thread_ptr[static_cast<std::size_t>(t)];
         i < thread_ptr[static_cast<std::size_t>(t) + 1]; ++i) {
      for (index_t k = item_ptr[static_cast<std::size_t>(i)];
           k < item_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
        const index_t row = rows[static_cast<std::size_t>(k)];
        owner[static_cast<std::size_t>(row)] = static_cast<index_t>(t);
        item_of[static_cast<std::size_t>(row)] =
            i - thread_ptr[static_cast<std::size_t>(t)];
      }
    }
  }
}

void build_sparsified_waits(int threads,
                            std::span<const index_t> consumer_thread_ptr,
                            const WaitSeedFn& seed, const WaitDepsFn& deps,
                            std::vector<index_t>& wait_ptr,
                            std::vector<index_t>& wait_thread,
                            std::vector<index_t>& wait_count,
                            index_t& deps_total, index_t& deps_kept) {
  const int T = threads;
  const index_t n_consumers = consumer_thread_ptr[uz(T)];
  wait_ptr.assign(uz(n_consumers) + 1, 0);

  // Per-consumer dedup (gen-stamped max need per producer) feeding a
  // per-thread monotone high-water prune: a wait is stored only when it
  // raises what this consumer thread has already waited for on that
  // producer. Consumer thread t's prune reads only its own high-water marks,
  // so the T prunes are independent: one worker per t appends t's waits to
  // its own lists, and a prefix over t stitches them together.
  std::vector<std::vector<index_t>> part_thread(uz(T)), part_count(uz(T));
  std::vector<index_t> part_deps(uz(T), 0);
#pragma omp parallel num_threads(std::max(1, std::min(T, max_threads())))
  {
    struct Dedup {
      std::vector<index_t> need, touched;
      std::vector<std::uint64_t> stamp;
      std::uint64_t gen = 0;
      index_t deps = 0;
    } dd;
    dd.need.assign(uz(T), 0);
    dd.stamp.assign(uz(T), 0);
    std::vector<index_t> last_wait(uz(T), 0);
    // Built once per worker; its one-reference capture fits std::function's
    // small-object buffer, so no call allocates.
    const std::function<void(index_t, index_t)> yield =
        [&dd](index_t ot, index_t cnt) {
          ++dd.deps;
          if (dd.stamp[uz(ot)] != dd.gen) {
            dd.stamp[uz(ot)] = dd.gen;
            dd.need[uz(ot)] = cnt;
            dd.touched.push_back(ot);
          } else {
            dd.need[uz(ot)] = std::max(dd.need[uz(ot)], cnt);
          }
        };
#pragma omp for schedule(dynamic, 1)
    for (int t = 0; t < T; ++t) {
      std::fill(last_wait.begin(), last_wait.end(), 0);
      if (seed) seed(t, last_wait);
      dd.deps = 0;
      auto& wt = part_thread[uz(t)];
      auto& wc = part_count[uz(t)];
      for (index_t c = consumer_thread_ptr[uz(t)];
           c < consumer_thread_ptr[uz(t) + 1]; ++c) {
        ++dd.gen;
        dd.touched.clear();
        deps(t, c, yield);
        std::sort(dd.touched.begin(), dd.touched.end());
        const std::size_t before = wt.size();
        for (index_t ot : dd.touched) {
          const index_t cnt = dd.need[uz(ot)];
          if (cnt <= last_wait[uz(ot)]) continue;
          last_wait[uz(ot)] = cnt;
          wt.push_back(ot);
          wc.push_back(cnt);
        }
        wait_ptr[uz(c) + 1] = static_cast<index_t>(wt.size() - before);
      }
      part_deps[uz(t)] = dd.deps;
    }
  }

  deps_kept = inclusive_scan_inplace(std::span<index_t>(wait_ptr).subspan(1));
  deps_total = 0;
  wait_thread.resize(uz(deps_kept));
  wait_count.resize(uz(deps_kept));
  for (int t = 0; t < T; ++t) {
    const std::size_t base = uz(wait_ptr[uz(consumer_thread_ptr[uz(t)])]);
    std::copy(part_thread[uz(t)].begin(), part_thread[uz(t)].end(),
              wait_thread.begin() + static_cast<std::ptrdiff_t>(base));
    std::copy(part_count[uz(t)].begin(), part_count[uz(t)].end(),
              wait_count.begin() + static_cast<std::ptrdiff_t>(base));
    deps_total += part_deps[uz(t)];
  }
}

ExecSchedule build_exec_schedule(index_t n_total,
                                 std::span<const index_t> level_ptr,
                                 std::span<const index_t> rows_by_level,
                                 const DepsFn& deps, int threads,
                                 index_t chunk_rows) {
  ExecSchedule s;
  s.threads = std::max(1, threads);
  s.n_total = n_total;
  s.num_levels = static_cast<index_t>(level_ptr.size()) - 1;
  s.level_ptr.assign(level_ptr.begin(), level_ptr.end());
  s.serial_order.assign(rows_by_level.begin(), rows_by_level.end());

  const index_t chunk = std::max<index_t>(1, chunk_rows);
  s.chunk_rows = chunk;
  const index_t n_rows = static_cast<index_t>(rows_by_level.size());
  const int T = s.threads;

  // Pass 1: assign each level's rows to threads in contiguous slices, block
  // each (level, thread) slice into items of up to `chunk` rows, and record
  // (owner, item position) per row. Chunks never cross a level boundary —
  // that keeps every item's dependencies in strictly earlier items on every
  // thread (deadlock freedom). Barrier levels recompute the SAME slices
  // from level_ptr at run time, so every regime executes identical
  // (row, thread) assignments.
  std::vector<index_t> row_count(static_cast<std::size_t>(T), 0);
  std::vector<index_t> item_count(static_cast<std::size_t>(T), 0);
  for (index_t l = 0; l < s.num_levels; ++l) {
    const index_t lsz = level_ptr[static_cast<std::size_t>(l) + 1] -
                        level_ptr[static_cast<std::size_t>(l)];
    for (int t = 0; t < T; ++t) {
      const index_t r = partition_range(lsz, T, t).size();
      row_count[static_cast<std::size_t>(t)] += r;
      item_count[static_cast<std::size_t>(t)] += (r + chunk - 1) / chunk;
    }
  }
  std::vector<index_t> row_base(static_cast<std::size_t>(T) + 1, 0);
  s.thread_ptr.assign(static_cast<std::size_t>(T) + 1, 0);
  for (int t = 0; t < T; ++t) {
    row_base[static_cast<std::size_t>(t) + 1] =
        row_base[static_cast<std::size_t>(t)] + row_count[static_cast<std::size_t>(t)];
    s.thread_ptr[static_cast<std::size_t>(t) + 1] =
        s.thread_ptr[static_cast<std::size_t>(t)] + item_count[static_cast<std::size_t>(t)];
  }
  const index_t n_items = s.thread_ptr.back();
  s.rows.assign(static_cast<std::size_t>(n_rows), kInvalidIndex);
  s.item_ptr.assign(static_cast<std::size_t>(n_items) + 1, 0);

  std::vector<index_t> owner(static_cast<std::size_t>(n_total), kInvalidIndex);
  std::vector<index_t> posn(static_cast<std::size_t>(n_total), kInvalidIndex);
  std::vector<index_t> rcursor(row_base.begin(), row_base.end() - 1);
  std::vector<index_t> icursor(s.thread_ptr.begin(), s.thread_ptr.end() - 1);
  for (index_t l = 0; l < s.num_levels; ++l) {
    const index_t base = level_ptr[static_cast<std::size_t>(l)];
    const index_t lsz = level_ptr[static_cast<std::size_t>(l) + 1] - base;
    for (int t = 0; t < T; ++t) {
      const Range rr = partition_range(lsz, T, t);
      for (index_t idx = rr.begin; idx < rr.end;) {
        const index_t take = std::min<index_t>(chunk, rr.end - idx);
        const index_t item = icursor[static_cast<std::size_t>(t)]++;
        for (index_t i = 0; i < take; ++i) {
          const index_t row = rows_by_level[static_cast<std::size_t>(base + idx + i)];
          const index_t p = rcursor[static_cast<std::size_t>(t)]++;
          s.rows[static_cast<std::size_t>(p)] = row;
          owner[static_cast<std::size_t>(row)] = static_cast<index_t>(t);
          posn[static_cast<std::size_t>(row)] =
              item - s.thread_ptr[static_cast<std::size_t>(t)];
        }
        s.item_ptr[static_cast<std::size_t>(item) + 1] =
            rcursor[static_cast<std::size_t>(t)];
        idx += take;
      }
    }
  }
  // Item start offsets: consecutive items of one thread share boundaries, so
  // only each thread's first item start needs pinning to its row base. (A
  // thread with no rows has row_base[t] == row_base[t+1]; the shared entry
  // stays consistent.)
  for (int t = 0; t < T; ++t) {
    s.item_ptr[static_cast<std::size_t>(s.thread_ptr[static_cast<std::size_t>(t)])] =
        row_base[static_cast<std::size_t>(t)];
  }

  // Pass 2: sparsified per-item wait lists. An item's need is the max over
  // all its rows; same-thread and unscheduled dependencies are filtered
  // here, the dedup + monotone pruning live in build_sparsified_waits.
  build_sparsified_waits(
      T, s.thread_ptr, /*seed=*/{},
      [&](int t, index_t i,
          const std::function<void(index_t, index_t)>& yield) {
        // The row adaptor captures one reference, so building it allocates
        // nothing (it fits std::function's small-object buffer).
        const struct {
          const index_t* owner;
          const index_t* posn;
          index_t t;
          const std::function<void(index_t, index_t)>* yield;
        } ctx{owner.data(), posn.data(), static_cast<index_t>(t), &yield};
        const std::function<void(index_t)> on_dep = [&ctx](index_t d) {
          const index_t ot = ctx.owner[static_cast<std::size_t>(d)];
          if (ot == kInvalidIndex || ot == ctx.t) return;
          (*ctx.yield)(ot, ctx.posn[static_cast<std::size_t>(d)] + 1);
        };
        for (index_t k = s.item_ptr[static_cast<std::size_t>(i)];
             k < s.item_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
          deps(s.rows[static_cast<std::size_t>(k)], on_dep);
        }
      },
      s.wait_ptr, s.wait_thread, s.wait_count, s.deps_total, s.deps_kept);
  return s;
}

ExecSchedule retarget(const ExecSchedule& s, const DepsFn& deps, int threads) {
  // Same builder, same retained level structure, new team: the result is
  // field-for-field identical to a fresh build at `threads` by construction.
  // Regime tags and the spin budget travel with the structure — a hybrid
  // schedule stays hybrid (with the floor pruning re-derived for the new
  // team) at any team size.
  ExecSchedule r = build_exec_schedule(s.n_total, s.level_ptr, s.serial_order,
                                       deps, threads, s.chunk_rows);
  r.spin_budget = s.spin_budget;
  if (!s.level_tags.empty()) apply_level_tags(r, deps, s.level_tags);
  return r;
}

void apply_level_tags(ExecSchedule& s, const DepsFn& deps,
                      std::span<const std::uint8_t> tags) {
  JAVELIN_CHECK(tags.size() == static_cast<std::size_t>(s.num_levels),
                "apply_level_tags: one tag per level required");
  if (s.hybrid()) {
    // The stored waits were pruned to the OLD regime floors; pruning them
    // again for new floors would drop waits the new tags do not cover.
    // Restore the uniform wait lists first (an untagged retarget at the
    // schedule's own team is bitwise a fresh build). `tags` may alias
    // s.level_tags, so copy it before the rebuild replaces the schedule.
    const std::vector<std::uint8_t> keep(tags.begin(), tags.end());
    s.level_tags.clear();
    s = retarget(s, deps, s.threads);
    apply_level_tags(s, deps, keep);
    return;
  }
  const auto all_p2p = std::all_of(tags.begin(), tags.end(), [](std::uint8_t b) {
    return b == static_cast<std::uint8_t>(LevelRegime::kP2P);
  });
  if (all_p2p) {
    // Uniform P2P = the untagged schedule; keep the cheap representation
    // (and the single-region fused paths that require it).
    s.level_tags.clear();
    s.seg_level_ptr.clear();
    s.seg_items.clear();
    return;
  }
  for (std::uint8_t b : tags) {
    JAVELIN_CHECK(b <= static_cast<std::uint8_t>(LevelRegime::kSerial),
                  "apply_level_tags: unknown regime tag");
  }
  s.level_tags.assign(tags.begin(), tags.end());

  const int T = s.threads;
  const index_t L = s.num_levels;

  // Regime floor per level: every item in levels < floor[l] is published
  // before any item of level l starts. kBarrier/kSerial levels see
  // everything before themselves (per-level barriers / thread-0 program
  // order behind the segment-entry barrier); kP2P levels see everything
  // before their contiguous P2P segment (the segment-entry barrier).
  std::vector<index_t> floor_of(uz(L), 0);
  for (index_t l = 0; l < L; ++l) {
    if (static_cast<LevelRegime>(tags[uz(l)]) != LevelRegime::kP2P) {
      floor_of[uz(l)] = l;
    } else {
      floor_of[uz(l)] =
          (l > 0 && static_cast<LevelRegime>(tags[uz(l - 1)]) ==
                        LevelRegime::kP2P)
              ? floor_of[uz(l - 1)]
              : l;
    }
  }

  // cum_items[t][l] = items of thread t in levels < l (the published count
  // a consumer with floor l can rely on from producer thread t).
  const index_t chunk = std::max<index_t>(1, s.chunk_rows);
  std::vector<std::vector<index_t>> cum_items(
      static_cast<std::size_t>(T), std::vector<index_t>(uz(L) + 1, 0));
  for (index_t l = 0; l < L; ++l) {
    const index_t lsz = s.level_ptr[uz(l) + 1] - s.level_ptr[uz(l)];
    for (int t = 0; t < T; ++t) {
      const index_t r = partition_range(lsz, T, t).size();
      cum_items[static_cast<std::size_t>(t)][uz(l) + 1] =
          cum_items[static_cast<std::size_t>(t)][uz(l)] + (r + chunk - 1) / chunk;
    }
  }

  // Prune: drop wait w of a consumer item in level lc when the producer
  // count is already covered by the floor. Items are laid out level-major
  // per thread, so each thread's item index maps to its level through the
  // same cumulative counts.
  std::vector<index_t> new_ptr(s.wait_ptr.size(), 0);
  // Grown on demand, not reserved at the uniform size: tagging a deep
  // schedule keeps a tiny fraction of its waits, and a reserved capacity
  // would stay allocated with the factor.
  std::vector<index_t> new_thread;
  std::vector<index_t> new_count;
  index_t kept = 0;
  for (int t = 0; t < T; ++t) {
    const auto& own_cum = cum_items[static_cast<std::size_t>(t)];
    index_t lvl = 0;
    for (index_t i = s.thread_ptr[uz(static_cast<index_t>(t))];
         i < s.thread_ptr[uz(static_cast<index_t>(t)) + 1]; ++i) {
      const index_t local = i - s.thread_ptr[uz(static_cast<index_t>(t))];
      while (lvl < L && own_cum[uz(lvl) + 1] <= local) ++lvl;
      const index_t fl = lvl < L ? floor_of[uz(lvl)] : L;
      for (index_t w = s.wait_ptr[uz(i)]; w < s.wait_ptr[uz(i) + 1]; ++w) {
        const index_t pt = s.wait_thread[uz(w)];
        if (s.wait_count[uz(w)] <= cum_items[uz(pt)][uz(fl)]) continue;
        new_thread.push_back(pt);
        new_count.push_back(s.wait_count[uz(w)]);
        ++kept;
      }
      new_ptr[uz(i) + 1] = kept;
    }
  }
  s.wait_ptr = std::move(new_ptr);
  s.wait_thread = std::move(new_thread);
  s.wait_count = std::move(new_count);
  s.deps_kept = kept;
  build_regime_segments(s, tags, s.seg_level_ptr, s.seg_items);
}

void build_regime_segments(const ExecSchedule& s,
                           std::span<const std::uint8_t> tags,
                           std::vector<index_t>& seg_level_ptr,
                           std::vector<index_t>& seg_items) {
  seg_level_ptr.clear();
  seg_items.clear();
  if (tags.empty()) return;
  const index_t L = s.num_levels;
  for (index_t l = 0; l < L; ++l) {
    if (l == 0 || tags[static_cast<std::size_t>(l)] !=
                      tags[static_cast<std::size_t>(l) - 1]) {
      seg_level_ptr.push_back(l);
    }
  }
  seg_level_ptr.push_back(L);
  // Per-thread item counts follow the builder's layout: a (level, thread)
  // slice of r rows forms ceil(r / chunk) items.
  const std::size_t S1 = seg_level_ptr.size();
  const index_t chunk = std::max<index_t>(1, s.chunk_rows);
  seg_items.assign(static_cast<std::size_t>(s.threads) * S1, 0);
  for (int t = 0; t < s.threads; ++t) {
    index_t* cum = seg_items.data() + static_cast<std::size_t>(t) * S1;
    for (std::size_t k = 0; k + 1 < S1; ++k) {
      index_t items = cum[k];
      for (index_t l = seg_level_ptr[k]; l < seg_level_ptr[k + 1]; ++l) {
        const index_t lsz = s.level_ptr[static_cast<std::size_t>(l) + 1] -
                            s.level_ptr[static_cast<std::size_t>(l)];
        const index_t r = partition_range(lsz, s.threads, t).size();
        items += (r + chunk - 1) / chunk;
      }
      cum[k + 1] = items;
    }
  }
}

std::vector<std::uint8_t> narrow_level_tags(const ExecSchedule& s,
                                            index_t min_level_rows) {
  if (s.threads <= 1 ||
      s.small_level_row_frac(min_level_rows) < kNarrowRowFracMin) {
    return {};
  }
  std::vector<std::uint8_t> tags(static_cast<std::size_t>(s.num_levels),
                                 static_cast<std::uint8_t>(LevelRegime::kP2P));
  for (index_t l = 0; l < s.num_levels; ++l) {
    if (s.level_ptr[static_cast<std::size_t>(l) + 1] -
            s.level_ptr[static_cast<std::size_t>(l)] <
        min_level_rows) {
      tags[static_cast<std::size_t>(l)] =
          static_cast<std::uint8_t>(LevelRegime::kSerial);
    }
  }
  return tags;
}

DepsFn lower_triangular_deps(const CsrMatrix& lu) {
  const CsrMatrix* m = &lu;
  return [m](index_t row, const std::function<void(index_t)>& yield) {
    for (index_t c : m->row_cols(row)) {
      if (c >= row) break;
      yield(c);
    }
  };
}

DepsFn upper_triangular_deps(const CsrMatrix& lu) {
  const CsrMatrix* m = &lu;
  return [m](index_t row, const std::function<void(index_t)>& yield) {
    auto cols = m->row_cols(row);
    for (std::size_t k = cols.size(); k-- > 0;) {
      if (cols[k] <= row) break;
      yield(cols[k]);
    }
  };
}

ExecSchedule build_upper_forward_schedule(const CsrMatrix& lu,
                                          std::span<const index_t> upper_level_ptr,
                                          int threads,
                                          index_t chunk_rows) {
  const index_t n_upper = upper_level_ptr.empty() ? 0 : upper_level_ptr.back();
  // Levels are contiguous row ranges after the plan permutation; materialize
  // the identity listing.
  std::vector<index_t> rows(static_cast<std::size_t>(n_upper));
  for (index_t r = 0; r < n_upper; ++r) rows[static_cast<std::size_t>(r)] = r;
  return build_exec_schedule(lu.rows(), upper_level_ptr, rows,
                             lower_triangular_deps(lu), threads, chunk_rows);
}

ExecSchedule build_backward_schedule(const CsrMatrix& lu, int threads,
                                     index_t chunk_rows) {
  const LevelSets ls = compute_level_sets_upper(lu);
  return build_exec_schedule(lu.rows(), ls.level_ptr,
                             ls.rows_by_level, upper_triangular_deps(lu),
                             threads, chunk_rows);
}

}  // namespace javelin
