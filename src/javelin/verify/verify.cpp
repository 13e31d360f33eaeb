#include "javelin/verify/verify.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace javelin::verify {

namespace {

constexpr std::size_t uz(std::int64_t i) noexcept {
  return static_cast<std::size_t>(i);
}

/// Capped diagnostic sink: a schedule with every wait dropped has O(deps)
/// findings; storing the first `cap` and counting the rest keeps
/// verification allocation-bounded while still reporting totals.
class Sink {
 public:
  Sink(VerifyReport& rep, index_t cap) : rep_(rep), cap_(cap) {}

  void add(DiagKind kind, index_t consumer_row, index_t producer_row,
           int consumer_thread, int producer_thread, index_t level,
           index_t item, std::string detail) {
    if (static_cast<index_t>(rep_.diagnostics.size()) < cap_) {
      rep_.diagnostics.push_back({kind, consumer_row, producer_row,
                                  consumer_thread, producer_thread, level,
                                  item, std::move(detail)});
    } else {
      ++rep_.suppressed;
    }
  }

  void structural(std::string detail) {
    add(DiagKind::kMalformed, kInvalidIndex, kInvalidIndex, -1, -1,
        kInvalidIndex, kInvalidIndex, std::move(detail));
  }

  bool has(DiagKind kind) const {
    for (const ScheduleDiagnostic& d : rep_.diagnostics) {
      if (d.kind == kind) return true;
    }
    return false;
  }

 private:
  VerifyReport& rep_;
  index_t cap_;
};

bool monotone(const std::vector<index_t>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[i - 1]) return false;
  }
  return true;
}

}  // namespace

const char* diag_kind_name(DiagKind k) noexcept {
  switch (k) {
    case DiagKind::kMalformed: return "malformed";
    case DiagKind::kPartition: return "partition";
    case DiagKind::kLevelOrder: return "level_order";
    case DiagKind::kLevelDependency: return "level_dependency";
    case DiagKind::kWaitMetadata: return "wait_metadata";
    case DiagKind::kDeadlock: return "deadlock";
    case DiagKind::kUncoveredDependency: return "uncovered_dependency";
    case DiagKind::kRetargetMismatch: return "retarget_mismatch";
    case DiagKind::kStatsMismatch: return "stats_mismatch";
    case DiagKind::kRegimeTag: return "regime_tag";
  }
  return "unknown";
}

std::string ScheduleDiagnostic::to_string() const {
  std::ostringstream os;
  os << '[' << diag_kind_name(kind) << ']';
  if (consumer_row != kInvalidIndex) {
    os << " row " << consumer_row;
    if (consumer_thread >= 0) os << " (thread " << consumer_thread;
    if (consumer_thread >= 0 && item != kInvalidIndex) os << ", item " << item;
    if (consumer_thread >= 0 && level != kInvalidIndex)
      os << ", level " << level;
    if (consumer_thread >= 0) os << ')';
  }
  if (producer_row != kInvalidIndex) {
    os << " <- row " << producer_row;
    if (producer_thread >= 0) os << " (thread " << producer_thread << ')';
  }
  if (!detail.empty()) os << ": " << detail;
  return os.str();
}

std::string VerifyReport::summary() const {
  std::ostringstream os;
  if (ok()) {
    os << "ok: " << stats.deps_cross_thread << " cross-thread deps ("
       << stats.deps_covered_direct << " direct, "
       << stats.deps_covered_transitive << " transitive";
    if (stats.deps_covered_regime > 0) {
      os << ", " << stats.deps_covered_regime << " regime";
    }
    os << "), " << stats.waits_total << " waits, " << stats.items
       << " items, " << stats.levels << " levels";
    return os.str();
  }
  os << diagnostics.size() + static_cast<std::size_t>(suppressed)
     << " diagnostic(s)";
  const std::size_t show = std::min<std::size_t>(diagnostics.size(), 4);
  for (std::size_t i = 0; i < show; ++i) {
    os << (i == 0 ? ": " : "; ") << diagnostics[i].to_string();
  }
  if (diagnostics.size() + static_cast<std::size_t>(suppressed) > show) {
    os << "; ...";
  }
  return os.str();
}

VerifyReport verify_schedule(const ExecSchedule& s, const DepsFn& deps,
                             index_t max_diagnostics) {
  VerifyReport rep;
  Sink sink(rep, max_diagnostics);

  // ---- Phase 0: shape. Everything downstream indexes through these
  // arrays, so a shape violation aborts the analysis (one diagnostic, no
  // undefined behavior) instead of limping on.
  const index_t n_rows = static_cast<index_t>(s.rows.size());
  const index_t n_serial = static_cast<index_t>(s.serial_order.size());

  if (s.thread_ptr.empty()) {
    // Default-constructed schedule: acceptable only if it schedules nothing
    // (a default-constructed ExecSchedule, e.g. an unfilled cache entry).
    if (n_rows != 0 || n_serial != 0) {
      sink.structural("thread_ptr empty but rows are scheduled");
    }
    return rep;
  }

  const int T = s.threads;
  if (T < 1) {
    sink.structural("threads < 1");
    return rep;
  }
  if (static_cast<index_t>(s.thread_ptr.size()) !=
          static_cast<index_t>(T) + 1 ||
      s.thread_ptr.front() != 0 || !monotone(s.thread_ptr)) {
    sink.structural("thread_ptr is not a monotone (threads+1)-pointer array");
    return rep;
  }
  const index_t n_items = s.thread_ptr.back();
  if (n_items > 0 &&
      (static_cast<index_t>(s.item_ptr.size()) != n_items + 1 ||
       s.item_ptr.front() != 0 || !monotone(s.item_ptr) ||
       s.item_ptr.back() != n_rows)) {
    sink.structural("item_ptr does not partition rows into items");
    return rep;
  }
  if (s.level_ptr.empty() || s.level_ptr.front() != 0 ||
      !monotone(s.level_ptr) || s.level_ptr.back() != n_serial) {
    sink.structural("level_ptr does not partition serial_order into levels");
    return rep;
  }
  const index_t n_levels = static_cast<index_t>(s.level_ptr.size()) - 1;
  if (s.num_levels != n_levels) {
    sink.add(DiagKind::kStatsMismatch, kInvalidIndex, kInvalidIndex, -1, -1,
             kInvalidIndex, kInvalidIndex,
             "stored num_levels disagrees with level_ptr");
  }
  // Per-level regime tags: a malformed vector makes the executor's
  // segment walk meaningless (and its wait pruning unjustified), so flag it
  // and analyze the schedule as uniform point-to-point — which then reports
  // the pruned waits as the races they would be.
  bool hybrid = !s.level_tags.empty();
  if (hybrid && static_cast<index_t>(s.level_tags.size()) != n_levels) {
    sink.add(DiagKind::kRegimeTag, kInvalidIndex, kInvalidIndex, -1, -1,
             kInvalidIndex, kInvalidIndex,
             "level_tags length disagrees with level_ptr");
    hybrid = false;
  }
  if (hybrid) {
    for (index_t l = 0; l < n_levels; ++l) {
      if (s.level_tags[uz(l)] >
          static_cast<std::uint8_t>(LevelRegime::kSerial)) {
        sink.add(DiagKind::kRegimeTag, kInvalidIndex, kInvalidIndex, -1, -1,
                 l, kInvalidIndex, "unknown regime tag value");
        hybrid = false;
        break;
      }
    }
  }
  if (hybrid && s.num_levels == n_levels) {
    // The executor walks the stored segment layout, not the tags: it must
    // be exactly the one the tags imply.
    std::vector<index_t> seg_level_ptr, seg_items;
    build_regime_segments(s, s.level_tags, seg_level_ptr, seg_items);
    if (seg_level_ptr != s.seg_level_ptr || seg_items != s.seg_items) {
      sink.add(DiagKind::kRegimeTag, kInvalidIndex, kInvalidIndex, -1, -1,
               kInvalidIndex, kInvalidIndex,
               "segment layout disagrees with level_tags");
    }
  }
  for (index_t k = 0; k < n_rows; ++k) {
    const index_t r = s.rows[uz(k)];
    if (r < 0 || r >= s.n_total) {
      sink.structural("rows[] entry out of [0, n_total)");
      return rep;
    }
  }
  for (index_t k = 0; k < n_serial; ++k) {
    const index_t r = s.serial_order[uz(k)];
    if (r < 0 || r >= s.n_total) {
      sink.structural("serial_order[] entry out of [0, n_total)");
      return rep;
    }
  }
  // Wait arrays: a shape violation here only disables the happens-before
  // phase — partition and level analysis do not read them.
  bool waits_ok = true;
  if (n_items > 0) {
    if (static_cast<index_t>(s.wait_ptr.size()) != n_items + 1 ||
        s.wait_ptr.front() != 0 || !monotone(s.wait_ptr) ||
        static_cast<index_t>(s.wait_thread.size()) != s.wait_ptr.back() ||
        static_cast<index_t>(s.wait_count.size()) != s.wait_ptr.back()) {
      sink.structural("wait_ptr/wait_thread/wait_count shapes disagree");
      waits_ok = false;
    } else if (s.deps_kept != s.wait_ptr.back()) {
      sink.add(DiagKind::kStatsMismatch, kInvalidIndex, kInvalidIndex, -1, -1,
               kInvalidIndex, kInvalidIndex,
               "stored deps_kept disagrees with wait_ptr");
    }
  }

  // ---- Phase 1: partition — the items and the retained level structure
  // must name the same row set, each row exactly once on both sides. Along
  // the way record the producer maps the happens-before phase consumes
  // (owner thread, item position, global rows[] position).
  std::vector<index_t> owner(uz(s.n_total), kInvalidIndex);
  std::vector<index_t> posn(uz(s.n_total), kInvalidIndex);
  std::vector<index_t> item_at(uz(s.n_total), kInvalidIndex);
  std::vector<index_t> first_pos(uz(s.n_total), kInvalidIndex);
  for (int t = 0; t < T; ++t) {
    for (index_t i = s.thread_ptr[uz(t)]; i < s.thread_ptr[uz(t) + 1]; ++i) {
      for (index_t k = s.item_ptr[uz(i)]; k < s.item_ptr[uz(i) + 1]; ++k) {
        const index_t r = s.rows[uz(k)];
        if (first_pos[uz(r)] != kInvalidIndex) {
          sink.add(DiagKind::kPartition, r, kInvalidIndex, t,
                   static_cast<int>(owner[uz(r)]), kInvalidIndex, i,
                   "row executed by more than one item");
        } else {
          first_pos[uz(r)] = k;
        }
        owner[uz(r)] = static_cast<index_t>(t);
        posn[uz(r)] = i - s.thread_ptr[uz(t)];
        item_at[uz(r)] = i;
      }
    }
  }
  std::vector<index_t> level_of(uz(s.n_total), kInvalidIndex);
  for (index_t l = 0; l < n_levels; ++l) {
    for (index_t k = s.level_ptr[uz(l)]; k < s.level_ptr[uz(l) + 1]; ++k) {
      const index_t r = s.serial_order[uz(k)];
      if (level_of[uz(r)] != kInvalidIndex) {
        sink.add(DiagKind::kPartition, r, kInvalidIndex, -1, -1, l,
                 kInvalidIndex, "row listed twice in the level structure");
      }
      level_of[uz(r)] = l;
    }
  }
  for (index_t r = 0; r < s.n_total; ++r) {
    const bool in_items = first_pos[uz(r)] != kInvalidIndex;
    const bool in_levels = level_of[uz(r)] != kInvalidIndex;
    if (in_levels && !in_items) {
      sink.add(DiagKind::kPartition, r, kInvalidIndex, -1, -1, level_of[uz(r)],
               kInvalidIndex, "row in the level structure is never executed");
    } else if (in_items && !in_levels) {
      sink.add(DiagKind::kPartition, r, kInvalidIndex,
               static_cast<int>(owner[uz(r)]), -1, kInvalidIndex,
               item_at[uz(r)],
               "executed row is absent from the level structure");
    }
  }
  const bool partition_clean = !sink.has(DiagKind::kPartition);

  // ---- Phase 2: level soundness. (a) Items must not mix levels and each
  // thread's item sequence must be level-monotone — the P2P pruning
  // argument ("dependencies live in strictly earlier items on every
  // thread") rests on exactly this. (b) Every scheduled dependency must
  // live in a STRICTLY earlier level: barrier levels synchronize only
  // between levels, so a same-or-later-level dependency is a data race
  // under kBarrier no matter what the wait lists say.
  std::vector<index_t> item_level(uz(n_items), kInvalidIndex);
  for (int t = 0; t < T; ++t) {
    index_t prev_level = kInvalidIndex;
    for (index_t i = s.thread_ptr[uz(t)]; i < s.thread_ptr[uz(t) + 1]; ++i) {
      for (index_t k = s.item_ptr[uz(i)]; k < s.item_ptr[uz(i) + 1]; ++k) {
        const index_t r = s.rows[uz(k)];
        const index_t lv = level_of[uz(r)];
        if (lv == kInvalidIndex) continue;  // partition already flagged it
        if (item_level[uz(i)] == kInvalidIndex) {
          item_level[uz(i)] = lv;
        } else if (item_level[uz(i)] != lv) {
          sink.add(DiagKind::kLevelOrder, r, kInvalidIndex, t, -1, lv, i,
                   "item mixes rows of different levels");
        }
      }
      if (item_level[uz(i)] != kInvalidIndex) {
        if (prev_level != kInvalidIndex && item_level[uz(i)] < prev_level) {
          sink.add(DiagKind::kLevelOrder,
                   s.item_ptr[uz(i)] < s.item_ptr[uz(i) + 1]
                       ? s.rows[uz(s.item_ptr[uz(i)])]
                       : kInvalidIndex,
                   kInvalidIndex, t, -1, item_level[uz(i)], i,
                   "thread's items are not in level order");
        }
        prev_level = item_level[uz(i)];
      }
    }
  }
  for (index_t l = 0; l < n_levels; ++l) {
    for (index_t k = s.level_ptr[uz(l)]; k < s.level_ptr[uz(l) + 1]; ++k) {
      const index_t r = s.serial_order[uz(k)];
      deps(r, [&](index_t d) {
        if (d < 0 || d >= s.n_total) {
          sink.structural("dependency row out of [0, n_total)");
          return;
        }
        if (level_of[uz(d)] == kInvalidIndex) return;  // outside the set
        if (level_of[uz(d)] >= l) {
          sink.add(DiagKind::kLevelDependency, r, d,
                   static_cast<int>(owner[uz(r)]),
                   static_cast<int>(owner[uz(d)]), l, item_at[uz(r)],
                   "dependency is not in a strictly earlier level (barrier "
                   "levels would race)");
        }
      });
    }
  }

  rep.stats.items = n_items;
  rep.stats.levels = n_levels;
  if (!waits_ok) return rep;
  rep.stats.waits_total = n_items > 0 ? s.wait_ptr.back() : 0;

  // ---- Phase 3: wait metadata. Invalid edges are diagnosed and excluded
  // from the graph phases (they cannot be given a meaning).
  const index_t n_waits = rep.stats.waits_total;
  std::vector<char> wait_valid(uz(n_waits), 1);
  auto items_of = [&](index_t p) {
    return s.thread_ptr[uz(p) + 1] - s.thread_ptr[uz(p)];
  };
  auto item_head_row = [&](index_t i) {
    return s.item_ptr[uz(i)] < s.item_ptr[uz(i) + 1]
               ? s.rows[uz(s.item_ptr[uz(i)])]
               : kInvalidIndex;
  };
  for (int t = 0; t < T; ++t) {
    for (index_t i = s.thread_ptr[uz(t)]; i < s.thread_ptr[uz(t) + 1]; ++i) {
      for (index_t w = s.wait_ptr[uz(i)]; w < s.wait_ptr[uz(i) + 1]; ++w) {
        const index_t pt = s.wait_thread[uz(w)];
        const index_t cnt = s.wait_count[uz(w)];
        const char* what = nullptr;
        if (pt < 0 || pt >= static_cast<index_t>(T)) {
          what = "wait names a thread outside the team";
        } else if (pt == static_cast<index_t>(t)) {
          what = "item waits on its own thread";
        } else if (cnt < 1) {
          what = "wait count < 1 is a no-op (dependency effectively dropped)";
        } else if (cnt > items_of(pt)) {
          what = "wait count exceeds the producer thread's item count (can "
                 "never be satisfied)";
        }
        if (what != nullptr) {
          sink.add(DiagKind::kWaitMetadata, item_head_row(i), kInvalidIndex, t,
                   pt >= 0 && pt < static_cast<index_t>(T)
                       ? static_cast<int>(pt)
                       : -1,
                   item_level[uz(i)], i, what);
          wait_valid[uz(w)] = 0;
        }
      }
    }
  }

  // ---- Phase 4: deadlock. Kahn's toposort over the item graph — edges are
  // per-thread program order plus (producer item -> waiting item) for every
  // valid wait. Tagged schedules add VIRTUAL SYNC NODES for the executor's
  // extra synchronization (segment-entry barriers, per-level barriers of
  // kBarrier runs, and the serialization of kSerial levels, which orders
  // levels just as hard): every thread's last item below the sync level
  // precedes the node, every thread's first item at or above it follows,
  // and the nodes chain. Items left unprocessed sit on a cycle (or behind
  // one): at runtime they would spin forever.
  std::vector<index_t> thread_of(uz(n_items), 0);
  for (int t = 0; t < T; ++t) {
    for (index_t i = s.thread_ptr[uz(t)]; i < s.thread_ptr[uz(t) + 1]; ++i) {
      thread_of[uz(i)] = static_cast<index_t>(t);
    }
  }
  // Sync points: level l has one at entry unless both l-1 and l are kP2P
  // levels of the same segment — the only level boundary the
  // executor crosses without synchronizing. Uniform schedules have none.
  // Level 0's node has no predecessor, so it orders nothing — matching the
  // executor, which skips the barrier before its first segment.
  std::vector<index_t> sync_levels;
  std::vector<index_t> sync_of_level(uz(n_levels), kInvalidIndex);
  if (hybrid) {
    const auto tag = [&](index_t l) {
      return static_cast<LevelRegime>(s.level_tags[uz(l)]);
    };
    for (index_t l = 0; l < n_levels; ++l) {
      if (l == 0 || tag(l) != LevelRegime::kP2P ||
          tag(l - 1) != LevelRegime::kP2P) {
        sync_levels.push_back(l);
      }
      sync_of_level[uz(l)] = static_cast<index_t>(sync_levels.size()) - 1;
    }
  }
  const index_t n_sync = static_cast<index_t>(sync_levels.size());
  const index_t n_nodes = n_items + n_sync;
  std::vector<std::pair<index_t, index_t>> sync_edges;
  for (index_t j = 1; j < n_sync; ++j) {
    sync_edges.emplace_back(n_items + j - 1, n_items + j);
  }
  if (n_sync > 0) {
    for (int t = 0; t < T; ++t) {
      index_t j = 0;
      index_t last_item = kInvalidIndex;
      for (index_t i = s.thread_ptr[uz(t)]; i < s.thread_ptr[uz(t) + 1];
           ++i) {
        const index_t lv = item_level[uz(i)];
        if (lv == kInvalidIndex) continue;
        const index_t j0 = j;
        while (j < n_sync && sync_levels[uz(j)] <= lv) {
          if (last_item != kInvalidIndex) {
            sync_edges.emplace_back(last_item, n_items + j);
          }
          ++j;
        }
        if (j > j0) sync_edges.emplace_back(n_items + j - 1, i);
        last_item = i;
      }
      for (; j < n_sync; ++j) {
        if (last_item != kInvalidIndex) {
          sync_edges.emplace_back(last_item, n_items + j);
        }
      }
    }
  }
  std::vector<index_t> indeg(uz(n_nodes), 0);
  std::vector<index_t> succ_ptr(uz(n_nodes) + 1, 0);
  auto wait_producer_item = [&](index_t w) {
    return s.thread_ptr[uz(s.wait_thread[uz(w)])] + s.wait_count[uz(w)] - 1;
  };
  for (index_t i = 0; i < n_items; ++i) {
    const int t = static_cast<int>(thread_of[uz(i)]);
    if (i != s.thread_ptr[uz(t)]) {
      ++succ_ptr[uz(i - 1) + 1];
      ++indeg[uz(i)];
    }
    for (index_t w = s.wait_ptr[uz(i)]; w < s.wait_ptr[uz(i) + 1]; ++w) {
      if (!wait_valid[uz(w)]) continue;
      ++succ_ptr[uz(wait_producer_item(w)) + 1];
      ++indeg[uz(i)];
    }
  }
  for (const auto& [u, v] : sync_edges) {
    ++succ_ptr[uz(u) + 1];
    ++indeg[uz(v)];
  }
  for (std::size_t i = 1; i < succ_ptr.size(); ++i) {
    succ_ptr[i] += succ_ptr[i - 1];
  }
  std::vector<index_t> succ(uz(n_nodes > 0 ? succ_ptr.back() : 0), 0);
  {
    std::vector<index_t> cursor(succ_ptr.begin(), succ_ptr.end() - 1);
    for (index_t i = 0; i < n_items; ++i) {
      const int t = static_cast<int>(thread_of[uz(i)]);
      if (i != s.thread_ptr[uz(t)]) {
        succ[uz(cursor[uz(i - 1)]++)] = i;
      }
      for (index_t w = s.wait_ptr[uz(i)]; w < s.wait_ptr[uz(i) + 1]; ++w) {
        if (!wait_valid[uz(w)]) continue;
        succ[uz(cursor[uz(wait_producer_item(w))]++)] = i;
      }
    }
    for (const auto& [u, v] : sync_edges) {
      succ[uz(cursor[uz(u)]++)] = v;
    }
  }
  std::vector<index_t> topo;
  topo.reserve(uz(n_nodes));
  for (index_t i = 0; i < n_nodes; ++i) {
    if (indeg[uz(i)] == 0) topo.push_back(i);
  }
  for (std::size_t head = 0; head < topo.size(); ++head) {
    const index_t i = topo[head];
    for (index_t q = succ_ptr[uz(i)]; q < succ_ptr[uz(i) + 1]; ++q) {
      const index_t j = succ[uz(q)];
      if (--indeg[uz(j)] == 0) topo.push_back(j);
    }
  }
  index_t items_done = 0;
  for (index_t u : topo) {
    if (u < n_items) ++items_done;
  }
  if (items_done < n_items) {
    std::vector<char> processed(uz(n_items), 0);
    for (index_t i : topo) {
      if (i < n_items) processed[uz(i)] = 1;
    }
    for (index_t i = 0; i < n_items; ++i) {
      if (processed[uz(i)]) continue;
      // Attach the first blocking wait edge for precision; a stuck
      // predecessor chain is reported on the item that owns the stuck wait.
      index_t pr = kInvalidIndex;
      int pt = -1;
      for (index_t w = s.wait_ptr[uz(i)]; w < s.wait_ptr[uz(i) + 1]; ++w) {
        if (!wait_valid[uz(w)]) continue;
        const index_t p_item = wait_producer_item(w);
        if (!processed[uz(p_item)]) {
          pr = item_head_row(p_item);
          pt = static_cast<int>(s.wait_thread[uz(w)]);
          break;
        }
      }
      sink.add(DiagKind::kDeadlock, item_head_row(i), pr,
               static_cast<int>(thread_of[uz(i)]), pt, item_level[uz(i)], i,
               "item can never start: cyclic or unsatisfiable wait chain");
    }
  }

  // ---- Phase 5: happens-before coverage via vector clocks. Processing
  // items in topological order, clock[i][p] = number of items thread p is
  // guaranteed to have PUBLISHED once item i has published: program order
  // carries the previous item's clock, each valid wait merges the producer
  // item's clock (the P2P executor's acquire-load of the progress counter
  // makes everything the producer saw visible too — transitive publish
  // order). A cross-thread dependency on row d owned by thread p at item
  // position q is covered iff the consumer's pre-execution clock has
  // clock[p] >= q+1; it is DIRECT if one of the consuming item's own waits
  // reaches q+1, else TRANSITIVE (the sparsification's savings, quantified).
  // Sync nodes carry clocks too: a node's clock is the JOIN of everything
  // its predecessors published (accumulated as they process, complete by
  // the time the node pops in topo order), and an item at level lv merges
  // the clock of its nearest preceding sync node — that is exactly what
  // the executor's barrier guarantees, and what justifies the waits
  // apply_level_tags pruned (counted as deps_covered_regime).
  std::vector<index_t> clock(uz(n_nodes) * uz(T), 0);
  std::vector<index_t> before(uz(T), 0);
  std::vector<index_t> direct_high(uz(T), 0);
  VerifyStats& st = rep.stats;
  auto push_to_sync_succs = [&](index_t u) {
    const index_t* cu = clock.data() + uz(u) * uz(T);
    for (index_t q = succ_ptr[uz(u)]; q < succ_ptr[uz(u) + 1]; ++q) {
      const index_t v = succ[uz(q)];
      if (v < n_items) continue;
      index_t* cv = clock.data() + uz(v) * uz(T);
      for (int p = 0; p < T; ++p) {
        cv[uz(p)] = std::max(cv[uz(p)], cu[uz(p)]);
      }
    }
  };
  for (std::size_t head = 0; head < topo.size(); ++head) {
    const index_t i = topo[head];
    if (i >= n_items) {
      push_to_sync_succs(i);  // forward the join along the sync chain
      continue;
    }
    const int t = static_cast<int>(thread_of[uz(i)]);
    if (i == s.thread_ptr[uz(t)]) {
      std::fill(before.begin(), before.end(), 0);
    } else {
      const index_t* prev = clock.data() + uz(i - 1) * uz(T);
      std::copy(prev, prev + T, before.begin());
    }
    const index_t* sync_floor = nullptr;
    if (n_sync > 0 && item_level[uz(i)] != kInvalidIndex &&
        sync_of_level[uz(item_level[uz(i)])] != kInvalidIndex) {
      sync_floor = clock.data() +
                   uz(n_items + sync_of_level[uz(item_level[uz(i)])]) * uz(T);
      for (int p = 0; p < T; ++p) {
        before[uz(p)] = std::max(before[uz(p)], sync_floor[uz(p)]);
      }
    }
    std::fill(direct_high.begin(), direct_high.end(), 0);
    for (index_t w = s.wait_ptr[uz(i)]; w < s.wait_ptr[uz(i) + 1]; ++w) {
      if (!wait_valid[uz(w)]) continue;
      const index_t pt = s.wait_thread[uz(w)];
      const index_t cnt = s.wait_count[uz(w)];
      direct_high[uz(pt)] = std::max(direct_high[uz(pt)], cnt);
      const index_t* pc = clock.data() + uz(wait_producer_item(w)) * uz(T);
      for (int p = 0; p < T; ++p) {
        before[uz(p)] = std::max(before[uz(p)], pc[uz(p)]);
      }
    }
    for (index_t k = s.item_ptr[uz(i)]; k < s.item_ptr[uz(i) + 1]; ++k) {
      const index_t r = s.rows[uz(k)];
      deps(r, [&](index_t d) {
        if (d < 0 || d >= s.n_total) return;  // diagnosed in phase 2
        const index_t ot = owner[uz(d)];
        if (ot == kInvalidIndex) {
          ++st.deps_external;
          return;
        }
        if (ot == static_cast<index_t>(t)) {
          ++st.deps_same_thread;
          const bool ordered =
              item_at[uz(d)] < i ||
              (item_at[uz(d)] == i && first_pos[uz(d)] < k);
          if (!ordered) {
            sink.add(DiagKind::kUncoveredDependency, r, d, t, t,
                     level_of[uz(r)], i,
                     "same-thread dependency executes at or after its "
                     "consumer in program order");
          }
          return;
        }
        ++st.deps_cross_thread;
        const index_t need = posn[uz(d)] + 1;
        if (before[uz(ot)] >= need) {
          if (direct_high[uz(ot)] >= need) {
            ++st.deps_covered_direct;
          } else if (sync_floor != nullptr && sync_floor[uz(ot)] >= need) {
            ++st.deps_covered_regime;
          } else {
            ++st.deps_covered_transitive;
          }
        } else {
          ++st.deps_uncovered;
          sink.add(DiagKind::kUncoveredDependency, r, d, t,
                   static_cast<int>(ot), level_of[uz(r)], i,
                   "no wait or transitive publish chain orders the producer "
                   "before the consumer (latent data race)");
        }
      });
    }
    index_t* after = clock.data() + uz(i) * uz(T);
    std::copy(before.begin(), before.end(), after);
    after[uz(t)] = (i - s.thread_ptr[uz(t)]) + 1;
    if (n_sync > 0) push_to_sync_succs(i);
  }

  // Stats bookkeeping is only comparable when the row sets agree and every
  // item was enumerated (duplicated rows double-count their dependencies;
  // deadlocked items are never reached).
  if (partition_clean && items_done == n_items &&
      s.deps_total != st.deps_cross_thread) {
    sink.add(DiagKind::kStatsMismatch, kInvalidIndex, kInvalidIndex, -1, -1,
             kInvalidIndex, kInvalidIndex,
             "stored deps_total disagrees with the dependency enumeration");
  }
  return rep;
}

VerifyReport verify_retarget(const ExecSchedule& s, const DepsFn& deps,
                             int threads, index_t max_diagnostics) {
  // A schedule with no retained level structure cannot be retargeted;
  // verifying it as-is reports whatever is wrong with it.
  if (s.level_ptr.empty()) return verify_schedule(s, deps, max_diagnostics);

  ExecSchedule fresh =
      build_exec_schedule(s.n_total, s.level_ptr, s.serial_order, deps,
                          threads, s.chunk_rows);
  fresh.spin_budget = s.spin_budget;
  if (!s.level_tags.empty()) apply_level_tags(fresh, deps, s.level_tags);
  const ExecSchedule rt = retarget(s, deps, threads);
  VerifyReport rep = verify_schedule(rt, deps, max_diagnostics);
  Sink sink(rep, max_diagnostics);
  auto mismatch = [&](const char* field) {
    sink.add(DiagKind::kRetargetMismatch, kInvalidIndex, kInvalidIndex, -1,
             -1, kInvalidIndex, kInvalidIndex,
             std::string("retargeted schedule differs from a fresh build: ") +
                 field);
  };
  if (rt.threads != fresh.threads) mismatch("threads");
  if (rt.n_total != fresh.n_total) mismatch("n_total");
  if (rt.chunk_rows != fresh.chunk_rows) mismatch("chunk_rows");
  if (rt.thread_ptr != fresh.thread_ptr) mismatch("thread_ptr");
  if (rt.item_ptr != fresh.item_ptr) mismatch("item_ptr");
  if (rt.rows != fresh.rows) mismatch("rows");
  if (rt.wait_ptr != fresh.wait_ptr) mismatch("wait_ptr");
  if (rt.wait_thread != fresh.wait_thread) mismatch("wait_thread");
  if (rt.wait_count != fresh.wait_count) mismatch("wait_count");
  if (rt.level_ptr != fresh.level_ptr) mismatch("level_ptr");
  if (rt.serial_order != fresh.serial_order) mismatch("serial_order");
  if (rt.level_tags != fresh.level_tags) mismatch("level_tags");
  if (rt.seg_level_ptr != fresh.seg_level_ptr) mismatch("seg_level_ptr");
  if (rt.seg_items != fresh.seg_items) mismatch("seg_items");
  if (rt.spin_budget != fresh.spin_budget) mismatch("spin_budget");
  if (rt.deps_total != fresh.deps_total) mismatch("deps_total");
  if (rt.deps_kept != fresh.deps_kept) mismatch("deps_kept");
  if (rt.num_levels != fresh.num_levels) mismatch("num_levels");
  return rep;
}

void verify_schedule_or_throw(const ExecSchedule& s, const DepsFn& deps,
                              const char* what) {
  const VerifyReport rep = verify_schedule(s, deps, /*max_diagnostics=*/8);
  if (!rep.ok()) {
    throw Error(std::string("schedule verification failed (") + what +
                "): " + rep.summary());
  }
}

}  // namespace javelin::verify
