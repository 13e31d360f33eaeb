#include "javelin/verify/mutate.hpp"

#include <algorithm>
#include <initializer_list>
#include <utility>
#include <vector>

#include "javelin/verify/verify.hpp"

namespace javelin::verify {

namespace {

constexpr std::size_t uz(std::int64_t i) noexcept {
  return static_cast<std::size_t>(i);
}

/// splitmix64: tiny, seed-stable, and good enough for site selection — the
/// harness needs determinism per (schedule, mutation, seed), not quality.
std::uint64_t splitmix(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

index_t num_waits(const ExecSchedule& s) {
  return s.wait_ptr.empty() ? 0 : s.wait_ptr.back();
}

index_t items_of(const ExecSchedule& s, index_t t) {
  return s.thread_ptr[uz(t) + 1] - s.thread_ptr[uz(t)];
}

/// Owning item of wait slot w: the last item whose wait range starts at or
/// before w (wait_ptr is monotone; empty items collapse correctly under
/// upper_bound).
index_t item_of_wait(const ExecSchedule& s, index_t w) {
  const auto it =
      std::upper_bound(s.wait_ptr.begin(), s.wait_ptr.end(), w);
  return static_cast<index_t>(it - s.wait_ptr.begin()) - 1;
}

index_t thread_of_item(const ExecSchedule& s, index_t i) {
  const auto it =
      std::upper_bound(s.thread_ptr.begin(), s.thread_ptr.end(), i);
  return static_cast<index_t>(it - s.thread_ptr.begin()) - 1;
}

index_t item_head_row(const ExecSchedule& s, index_t i) {
  return s.item_ptr[uz(i)] < s.item_ptr[uz(i) + 1]
             ? s.rows[uz(s.item_ptr[uz(i)])]
             : kInvalidIndex;
}

/// Remove wait slot w, keeping deps_kept in sync so the verifier's finding
/// is the uncovered dependency, not bookkeeping drift. deps_total is left
/// alone: the dependency still exists — losing its wait IS the defect.
void erase_wait(ExecSchedule& s, index_t w) {
  const index_t i = item_of_wait(s, w);
  s.wait_thread.erase(s.wait_thread.begin() + w);
  s.wait_count.erase(s.wait_count.begin() + w);
  for (std::size_t q = uz(i) + 1; q < s.wait_ptr.size(); ++q) {
    --s.wait_ptr[q];
  }
  --s.deps_kept;
}

/// Copy the first diagnostic of an expected kind into the result — the rows
/// the test asserts precision against.
bool grab_rows(const VerifyReport& rep, std::initializer_list<DiagKind> kinds,
               MutationResult& res) {
  for (const ScheduleDiagnostic& d : rep.diagnostics) {
    for (DiagKind k : kinds) {
      if (d.kind == k) {
        res.consumer_row = d.consumer_row;
        res.producer_row = d.producer_row;
        return true;
      }
    }
  }
  return false;
}

/// drop / weaken / redirect share the load-bearing-site search: apply the
/// candidate to a copy, ask the verifier, commit the first site whose loss
/// actually breaks coverage (see the header for why redundant sites exist).
MutationResult mutate_wait(ExecSchedule& s, Mutation m, const DepsFn& deps,
                           std::uint64_t seed) {
  MutationResult res;
  const index_t W = num_waits(s);
  if (W == 0) {
    res.detail = "no stored waits to mutate";
    return res;
  }
  std::vector<index_t> sites;
  for (index_t w = 0; w < W; ++w) {
    // Weakening a count-1 wait to zero is metadata corruption, not a
    // coverage defect — keep the classes disjoint.
    if (m == Mutation::kWeakenWait && s.wait_count[uz(w)] <= 1) continue;
    sites.push_back(w);
  }
  if (sites.empty()) {
    res.detail = "no candidate wait sites";
    return res;
  }
  std::uint64_t st = seed;
  const std::size_t start = uz(static_cast<std::int64_t>(
      splitmix(st) % static_cast<std::uint64_t>(sites.size())));
  // 64 seeded probes: most stored waits are load-bearing (the builder
  // already pruned same-thread redundancy), so the search ends in one or
  // two verifier calls in practice; the cap bounds pathological inputs.
  const std::size_t tries = std::min<std::size_t>(sites.size(), 64);
  for (std::size_t k = 0; k < tries; ++k) {
    const index_t w = sites[(start + k) % sites.size()];
    const index_t item = item_of_wait(s, w);
    const index_t t = thread_of_item(s, item);
    ExecSchedule cand = s;
    if (m == Mutation::kDropWait) {
      erase_wait(cand, w);
      res.detail = "dropped wait";
    } else if (m == Mutation::kWeakenWait) {
      --cand.wait_count[uz(w)];
      res.detail = "weakened wait count by one";
    } else {
      // Redirect to the next thread (cyclically) that is neither the
      // consumer nor the current producer and has items to point at.
      const index_t old_pt = s.wait_thread[uz(w)];
      index_t new_pt = kInvalidIndex;
      for (index_t step = 1; step < static_cast<index_t>(s.threads); ++step) {
        const index_t p =
            (old_pt + step) % static_cast<index_t>(s.threads);
        if (p == t || p == old_pt || items_of(s, p) == 0) continue;
        new_pt = p;
        break;
      }
      if (new_pt == kInvalidIndex) continue;  // needs >= 3 active threads
      cand.wait_thread[uz(w)] = new_pt;
      cand.wait_count[uz(w)] =
          std::min(s.wait_count[uz(w)], items_of(s, new_pt));
      res.detail = "redirected wait to the wrong producer thread";
    }
    const VerifyReport rep = verify_schedule(cand, deps);
    if (!rep.ok() &&
        grab_rows(rep, {DiagKind::kUncoveredDependency, DiagKind::kDeadlock},
                  res)) {
      s = std::move(cand);
      res.applied = true;
      return res;
    }
  }
  res.detail = "no load-bearing wait found within the search budget";
  return res;
}

}  // namespace

const char* mutation_name(Mutation m) noexcept {
  switch (m) {
    case Mutation::kDropWait: return "drop_wait";
    case Mutation::kWeakenWait: return "weaken_wait";
    case Mutation::kRedirectWait: return "redirect_wait";
    case Mutation::kMoveRowAcrossLevel: return "move_row_across_level";
    case Mutation::kDuplicateRow: return "duplicate_row";
    case Mutation::kCorruptWaitCount: return "corrupt_wait_count";
    case Mutation::kRegimeRetag: return "regime_retag";
    case Mutation::kRegimeTagShape: return "regime_tag_shape";
  }
  return "unknown";
}

MutationResult apply_mutation(ExecSchedule& s, Mutation m, const DepsFn& deps,
                              std::uint64_t seed) {
  MutationResult res;
  std::uint64_t st = seed;
  switch (m) {
    case Mutation::kDropWait:
    case Mutation::kWeakenWait:
    case Mutation::kRedirectWait:
      return mutate_wait(s, m, deps, seed);

    case Mutation::kMoveRowAcrossLevel: {
      // Shift a level boundary right by one: the first row of level l
      // becomes the last row of level l-1 while the stored items keep
      // executing it in the level-l slice. With true level sets (level(r)
      // = 1 + max level of r's dependencies) the moved row always has a
      // dependency in level l-1, which is now same-level — a data race on
      // barrier levels the verifier must flag.
      std::vector<index_t> sites;
      for (index_t l = 1; l < s.num_levels; ++l) {
        if (s.level_ptr[uz(l)] < s.level_ptr[uz(l) + 1]) sites.push_back(l);
      }
      if (sites.empty()) {
        res.detail = "single-level schedule: no boundary to move";
        return res;
      }
      const index_t l = sites[uz(static_cast<std::int64_t>(
          splitmix(st) % static_cast<std::uint64_t>(sites.size())))];
      res.consumer_row = s.serial_order[uz(s.level_ptr[uz(l)])];
      ++s.level_ptr[uz(l)];
      res.applied = true;
      res.detail = "moved first row of a level into the previous level";
      return res;
    }

    case Mutation::kDuplicateRow: {
      const index_t n = static_cast<index_t>(s.rows.size());
      if (n < 2) {
        res.detail = "fewer than two scheduled rows";
        return res;
      }
      const index_t i = static_cast<index_t>(
          splitmix(st) % static_cast<std::uint64_t>(n));
      index_t j = kInvalidIndex;
      for (index_t step = 1; step < n; ++step) {
        const index_t c = (i + step) % n;
        if (s.rows[uz(c)] != s.rows[uz(i)]) {
          j = c;
          break;
        }
      }
      if (j == kInvalidIndex) {
        res.detail = "all scheduled rows identical";
        return res;
      }
      res.producer_row = s.rows[uz(i)];  // the row that is lost
      res.consumer_row = s.rows[uz(j)];  // the row now executed twice
      s.rows[uz(i)] = s.rows[uz(j)];
      res.applied = true;
      res.detail = "overwrote one scheduled row with another";
      return res;
    }

    case Mutation::kCorruptWaitCount: {
      const index_t W = num_waits(s);
      if (W == 0) {
        res.detail = "no stored waits to corrupt";
        return res;
      }
      const index_t w = static_cast<index_t>(
          splitmix(st) % static_cast<std::uint64_t>(W));
      const index_t i = item_of_wait(s, w);
      s.wait_count[uz(w)] = items_of(s, s.wait_thread[uz(w)]) + 1;
      res.consumer_row = item_head_row(s, i);
      res.applied = true;
      res.detail = "raised a wait count beyond the producer's item count";
      return res;
    }

    case Mutation::kRegimeRetag: {
      // Flip a barrier/serial level to kP2P WITHOUT restoring the waits its
      // sync point justified pruning — exactly the defect a buggy tuner or
      // a stale tag edit would produce. Like the wait mutations, retagging
      // a level can leave every orphaned dependency transitively covered,
      // so search seeded candidate levels with the verifier as oracle.
      if (s.level_tags.empty()) {
        res.detail = "uniform schedule: no regime tags to retag";
        return res;
      }
      std::vector<index_t> sites;
      for (index_t l = 0; l < s.num_levels; ++l) {
        if (s.level_tags[uz(l)] !=
            static_cast<std::uint8_t>(LevelRegime::kP2P)) {
          sites.push_back(l);
        }
      }
      if (sites.empty()) {
        res.detail = "no barrier/serial level to retag";
        return res;
      }
      const std::size_t start = uz(static_cast<std::int64_t>(
          splitmix(st) % static_cast<std::uint64_t>(sites.size())));
      const std::size_t tries = std::min<std::size_t>(sites.size(), 64);
      for (std::size_t k = 0; k < tries; ++k) {
        const index_t l = sites[(start + k) % sites.size()];
        ExecSchedule cand = s;
        cand.level_tags[uz(l)] =
            static_cast<std::uint8_t>(LevelRegime::kP2P);
        // Keep the segment layout consistent with the edited tags, so the
        // only defect is the orphaned pruned waits.
        build_regime_segments(cand, cand.level_tags, cand.seg_level_ptr,
                              cand.seg_items);
        const VerifyReport rep = verify_schedule(cand, deps);
        if (!rep.ok() &&
            grab_rows(rep,
                      {DiagKind::kUncoveredDependency, DiagKind::kDeadlock},
                      res)) {
          s = std::move(cand);
          res.applied = true;
          res.detail = "retagged a synced level to p2p with its waits pruned";
          return res;
        }
      }
      res.detail = "no load-bearing regime boundary within the search budget";
      return res;
    }

    case Mutation::kRegimeTagShape: {
      if (s.level_tags.empty()) {
        res.detail = "uniform schedule: no regime tags to corrupt";
        return res;
      }
      // Truncating a one-entry vector would leave it EMPTY — a legal
      // uniform schedule, not a shape defect — so that variant needs two
      // levels.
      if (s.level_tags.size() >= 2 && splitmix(st) % 2 == 0) {
        s.level_tags.pop_back();
        res.detail = "truncated level_tags by one level";
      } else {
        const index_t l = static_cast<index_t>(
            splitmix(st) % static_cast<std::uint64_t>(s.level_tags.size()));
        s.level_tags[uz(l)] = 0xFF;
        res.detail = "planted an unknown regime tag value";
      }
      res.applied = true;
      return res;
    }
  }
  res.detail = "unknown mutation";
  return res;
}

}  // namespace javelin::verify
