// Execution schedules for level-ordered row sweeps.
//
// One build, one executor (exec/run.hpp), per-level synchronization
// regimes (LevelRegime):
//
//   * point-to-point level scheduling (paper §III-A, Fig. 4) — the untagged
//     default: rows of each level are mapped to threads in contiguous
//     slices; each thread executes its rows level-by-level in a fixed order.
//     That fixed order is the "implied ordering" that lets dependencies be
//     pruned:
//       - same-thread dependencies vanish (program order),
//       - per producer thread only the MAXIMUM needed schedule position is
//         kept (its progress counter is monotone),
//       - a dependency already implied by an earlier wait of the same
//         consumer thread is dropped (build-time transitive pruning).
//     At runtime an item performs at most (threads - 1) spin-waits on padded
//     progress counters — no barriers, no tasks.
//
//   * per-level regime tags (apply_level_tags): a level tagged kSerial runs
//     on thread 0 alone, a level tagged kBarrier is followed by a team
//     barrier. Tagging every level kBarrier gives the classic
//     barrier-synchronized level-set sweep (CSR-LS) — the SAME (level,
//     thread) slices, with the team barriering between levels instead of
//     spin-waiting on sparsified dependencies. This is the §VI baseline the
//     point-to-point scheme is measured against.
//
// Rows are additionally blocked into ITEMS — chunks of up to chunk_rows
// consecutive rows of one (level, thread) slice. For point-to-point levels
// the chunk is the synchronization granule: one merged wait list up front,
// one counter publish at the end. Chunks never cross a level boundary, which
// keeps the schedule deadlock-free (an item's dependencies always live in
// strictly earlier levels, hence strictly earlier items on every thread).
//
// Schedules are RUNTIME-RETARGETABLE: retarget() re-chunks the (level,
// thread) slices and rebuilds the sparsified waits for any team size from
// the retained level structure, bitwise-identical to a fresh build at that
// size. Consumers re-plan on a team-size mismatch instead of falling back to
// a serial sweep (ilu/retarget.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "javelin/sparse/csr.hpp"

namespace javelin {

/// Per-LEVEL synchronization regime (ExecSchedule::level_tags): one sweep
/// may mix point-to-point levels, barrier-stepped levels and serialized
/// levels. Every regime executes the SAME (level, thread) row slices in the
/// same per-row order, so all mixes are bitwise-interchangeable; only the
/// synchronization differs. Values are the stored tag bytes.
enum class LevelRegime : unsigned char {
  kP2P = 0,      ///< sparsified spin-waits within the segment
  kBarrier = 1,  ///< team barrier after the level
  kSerial = 2,   ///< thread 0 runs the level's rows alone
};

struct ExecSchedule {
  int threads = 1;
  index_t n_total = 0;     ///< dimension of the row-index space
  index_t chunk_rows = 0;  ///< blocking granule the schedule was built with

  /// Execution order: thread t runs items [thread_ptr[t] .. thread_ptr[t+1]);
  /// item i covers rows[item_ptr[i] .. item_ptr[i+1]) (a contiguous chunk of
  /// one (level, thread) slice, executed in stored order).
  std::vector<index_t> thread_ptr;
  std::vector<index_t> item_ptr;
  std::vector<index_t> rows;

  /// Sparsified waits, per ITEM (consumed by point-to-point levels; the
  /// waits barrier and serial levels already cover are pruned by
  /// apply_level_tags): before executing item i, wait until wait_thread[w]
  /// has published wait_count[w] items, for w in [wait_ptr[i],
  /// wait_ptr[i+1]).
  std::vector<index_t> wait_ptr;
  std::vector<index_t> wait_thread;
  std::vector<index_t> wait_count;

  /// Retained level structure: level l covers
  /// serial_order[level_ptr[l] .. level_ptr[l+1]). serial_order (level-major
  /// row listing) doubles as the dependency-safe serial execution order and,
  /// with level_ptr, as the input retarget() rebuilds from.
  std::vector<index_t> level_ptr;
  std::vector<index_t> serial_order;

  /// Per-level synchronization regimes (LevelRegime bytes, one per level).
  /// EMPTY means every level is kP2P: the executor runs the whole sweep as
  /// one point-to-point segment. Non-empty (set through apply_level_tags,
  /// which also prunes the waits each regime's sync already covers):
  /// contiguous same-tag level SEGMENTS, a team barrier at every segment
  /// entry after the first, the regime's own protocol inside.
  std::vector<std::uint8_t> level_tags;
  /// Segment layout of a hybrid schedule, derived from level_tags by
  /// apply_level_tags (empty when untagged): segment k covers levels
  /// [seg_level_ptr[k], seg_level_ptr[k+1]), and thread t owns
  /// seg_items[t * seg_level_ptr.size() + k] items in the levels before
  /// segment k. The executor steps over a segment's items in O(1) instead
  /// of re-deriving every level's slices on every sweep.
  std::vector<index_t> seg_level_ptr;
  std::vector<index_t> seg_items;

  /// Spin-wait escalation budget: pause-loop iterations before a wait
  /// (counter spin, level barrier) starts yielding the CPU. 0 derives the
  /// default from the team (spin_budget_for); ilu/ plumbs
  /// IluOptions::spin_max_pauses through here so the tuner can measure —
  /// and tests force — the pause→yield ladder.
  int spin_budget = 0;

  // --- statistics ----------------------------------------------------------
  index_t deps_total = 0;  ///< cross-thread dependencies before pruning
  index_t deps_kept = 0;   ///< spin-waits actually stored
  index_t num_levels = 0;  ///< also the barrier count per CSR-LS sweep

  index_t num_rows() const noexcept { return static_cast<index_t>(rows.size()); }
  index_t num_items() const noexcept {
    return item_ptr.empty() ? 0 : static_cast<index_t>(item_ptr.size()) - 1;
  }
  bool hybrid() const noexcept { return !level_tags.empty(); }
  LevelRegime level_regime(index_t l) const noexcept {
    return level_tags.empty() ? LevelRegime::kP2P
                              : static_cast<LevelRegime>(
                                    level_tags[static_cast<std::size_t>(l)]);
  }

  // --- level-shape statistics (tuner pruning heuristic + bench signal) -----
  /// Mean rows per level (0 for an empty schedule).
  double mean_rows_per_level() const noexcept {
    return num_levels > 0
               ? static_cast<double>(serial_order.size()) /
                     static_cast<double>(num_levels)
               : 0.0;
  }
  /// Fraction of scheduled rows living in levels with fewer than
  /// `threshold` rows — the rows whose level is too narrow to feed a team.
  double small_level_row_frac(index_t threshold) const noexcept {
    if (serial_order.empty() || level_ptr.empty()) return 0.0;
    index_t small = 0;
    for (index_t l = 0; l < num_levels; ++l) {
      const index_t lsz = level_ptr[static_cast<std::size_t>(l) + 1] -
                          level_ptr[static_cast<std::size_t>(l)];
      if (lsz < threshold) small += lsz;
    }
    return static_cast<double>(small) /
           static_cast<double>(serial_order.size());
  }
  index_t max_items_per_thread() const noexcept {
    if (thread_ptr.empty()) return 0;  // default-constructed schedule
    index_t m = 0;
    for (int t = 0; t < threads; ++t) {
      m = std::max(m, thread_ptr[static_cast<std::size_t>(t) + 1] -
                          thread_ptr[static_cast<std::size_t>(t)]);
    }
    return m;
  }

  /// Producer lookup for consumers synchronizing against this schedule from
  /// OUTSIDE it (the fused solve+SpMV phase): owner[r] is the executing
  /// thread of row r (kInvalidIndex if unscheduled) and item_of[r] the
  /// 0-based item position within that thread, i.e. a consumer must
  /// wait_for(owner[r], item_of[r] + 1).
  void producer_positions(std::vector<index_t>& owner,
                          std::vector<index_t>& item_of) const;
};

/// Yields the dependency rows of a given row (rows that must complete
/// first). Dependencies outside the scheduled row set are ignored (they are
/// satisfied by construction — e.g. upper-stage rows for the corner).
using DepsFn = std::function<void(index_t row, const std::function<void(index_t)>& yield)>;

/// Build-time helper shared by the schedule builder and the fused-SpMV
/// companion (build_fused_apply_spmv): sparsified wait-list construction
/// with monotone per-producer high-water pruning. Thread t executes
/// consumers [consumer_thread_ptr[t], consumer_thread_ptr[t+1]) in order.
/// `seed` pre-loads the thread's high-water marks with counts it has
/// already waited for before its first consumer (empty function = none).
/// `deps(t, c, yield)` enumerates consumer c's CROSS-thread dependencies as
/// (producer thread, required published count) — same-thread dependencies
/// must be filtered by the caller. Each consumer thread's pruning is
/// independent, so the lists are built in one pass by an OpenMP team with
/// one worker per consumer thread: `seed` and `deps` are called
/// concurrently for different t and must not throw. On return
/// wait_ptr/wait_thread/wait_count hold the pruned CSR-style wait lists and
/// deps_total/deps_kept the before/after dependency counts — identical for
/// any builder team.
using WaitSeedFn = std::function<void(int t, std::span<index_t> last_wait)>;
using WaitDepsFn = std::function<void(
    int t, index_t consumer,
    const std::function<void(index_t producer_thread, index_t count)>& yield)>;

void build_sparsified_waits(int threads,
                            std::span<const index_t> consumer_thread_ptr,
                            const WaitSeedFn& seed, const WaitDepsFn& deps,
                            std::vector<index_t>& wait_ptr,
                            std::vector<index_t>& wait_thread,
                            std::vector<index_t>& wait_count,
                            index_t& deps_total, index_t& deps_kept);

/// Default rows per item; the sweep kernels are memory-bound, so a modest
/// block already hides the wait/publish latency without delaying consumers.
inline constexpr index_t kDefaultChunkRows = 32;

/// Build a schedule from explicit level sets (level-major lists of rows).
/// `levels_rows` / `levels_ptr` follow the LevelSets layout. `deps` is
/// consulted once per row at build time. `chunk_rows` bounds the rows per
/// item (blocking granule); values < 1 are clamped to 1. The result is
/// untagged (uniform point-to-point); apply_level_tags installs regimes.
ExecSchedule build_exec_schedule(index_t n_total,
                                 std::span<const index_t> level_ptr,
                                 std::span<const index_t> rows_by_level,
                                 const DepsFn& deps, int threads,
                                 index_t chunk_rows = kDefaultChunkRows);

/// Re-plan `s` for a new team size: re-chunk the (level, thread) slices and
/// rebuild the sparsified waits from the retained level structure. `deps`
/// must enumerate the same dependencies the schedule was originally built
/// with (ilu/retarget.hpp supplies them from the factor). The result is
/// bitwise-identical — every field — to a fresh build at `threads`
/// (asserted by test_exec).
ExecSchedule retarget(const ExecSchedule& s, const DepsFn& deps, int threads);

/// Install per-level regime tags on `s` (size must equal s.num_levels; values
/// are LevelRegime bytes) and prune every stored wait the tagged regimes'
/// synchronization already covers. A schedule that already carries tags has
/// pruned wait lists, so it is first rebuilt untagged from its retained level
/// structure (`deps` must enumerate the dependencies it was built with) and
/// the pruning starts from the full uniform waits — re-tagging is as safe as
/// tagging a fresh build. The executor barriers at each same-tag segment
/// entry (and after every kBarrier level), so a consumer in
/// level lc is guaranteed every item in levels below its regime FLOOR —
/// lc itself for kBarrier/kSerial levels, the segment's first level for kP2P
/// — has been published before it starts; waits whose producer count is
/// below that floor are deleted (deps_kept drops, deps_total is untouched).
/// After pruning, every surviving wait's producer lives in the consumer's
/// own P2P segment. An all-kP2P tag vector is normalized to "no tags"
/// (uniform schedule); an all-kBarrier vector prunes every wait (CSR-LS).
/// Deterministic: retarget() re-applies the tags after rebuilding,
/// field-for-field identical to tagging a fresh build.
void apply_level_tags(ExecSchedule& s, const DepsFn& deps,
                      std::span<const std::uint8_t> tags);

/// The segment layout (ExecSchedule::seg_level_ptr / seg_items) that `tags`
/// — one valid LevelRegime byte per level of `s`, or none — imply for the
/// level structure, team and granule of `s`. apply_level_tags installs it;
/// the verifier re-derives it to check a stored layout.
void build_regime_segments(const ExecSchedule& s,
                           std::span<const std::uint8_t> tags,
                           std::vector<index_t>& seg_level_ptr,
                           std::vector<index_t>& seg_items);

/// Share of a schedule's rows its narrow levels must hold before
/// narrow_level_tags tags it. Below it the serial segments would save little
/// synchronization, and the uniform schedule keeps its uniform-only fast
/// paths (the single-region fused apply+SpMV).
inline constexpr double kNarrowRowFracMin = 0.10;

/// The default per-level regime rule (paper §III-B): a level with fewer than
/// `min_level_rows` rows (the planner's α) is too small to feed a team, so
/// it runs as a kSerial level; wider levels keep their sparsified P2P waits.
/// Returns the LevelRegime bytes for apply_level_tags, or an EMPTY vector —
/// stay uniform — unless `s` is a schedule of more than one thread whose
/// narrow levels hold at least kNarrowRowFracMin of its rows. A pure
/// function of the schedule's shape, shared by ilu_prepare, the tuner's
/// hybrid candidate and the tests.
std::vector<std::uint8_t> narrow_level_tags(const ExecSchedule& s,
                                            index_t min_level_rows);

/// Dependency enumerators of the triangular-factor schedules, exposed so
/// consumers can retarget without re-deriving them. The returned closures
/// hold a pointer to `lu`, which must outlive them.
DepsFn lower_triangular_deps(const CsrMatrix& lu);  ///< strictly-lower cols
DepsFn upper_triangular_deps(const CsrMatrix& lu);  ///< strictly-upper cols

/// Forward schedule for the upper stage of a two-stage plan: rows
/// [0, n_upper) with contiguous levels; dependencies are the strictly-lower
/// columns of `lu` (which is both the factorization and the forward-solve
/// dependency structure — the co-design of paper §VI).
ExecSchedule build_upper_forward_schedule(const CsrMatrix& lu,
                                          std::span<const index_t> upper_level_ptr,
                                          int threads,
                                          index_t chunk_rows = kDefaultChunkRows);

/// Backward schedule over ALL rows: dependencies are the strictly-upper
/// columns of `lu`; levels computed on that pattern, processed high-to-low.
ExecSchedule build_backward_schedule(const CsrMatrix& lu, int threads,
                                     index_t chunk_rows = kDefaultChunkRows);

}  // namespace javelin
