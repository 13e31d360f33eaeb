#include <algorithm>
#include <cstdint>

#include "javelin/order/orderings.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/support/parallel.hpp"

namespace javelin {

std::vector<index_t> rcm_order(const CsrMatrix& a) {
  JAVELIN_CHECK(a.square(), "ordering requires a square matrix");
  const index_t n = a.rows();
  const CsrPattern at = transpose_pattern(a);
  const auto at_cols = [&](index_t v) {
    const auto b = static_cast<std::size_t>(at.row_ptr[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(at.row_ptr[static_cast<std::size_t>(v) + 1]);
    return std::span<const index_t>(at.col_idx).subspan(b, e - b);
  };
  // Neighbour rank: nnz of the vertex's A row plus its Aᵀ row. An entry
  // present in both triangles counts twice; the key only ranks neighbours.
  std::vector<index_t> degree(static_cast<std::size_t>(n));
#pragma omp parallel for schedule(static)
  for (index_t v = 0; v < n; ++v) {
    degree[static_cast<std::size_t>(v)] =
        a.row_nnz(v) + static_cast<index_t>(at_cols(v).size());
  }

  // order[] doubles as the BFS queue. Newly reached neighbours are ranked
  // by one 64-bit key, (degree, index); a vertex reaches few new ones, so
  // short runs are insertion-sorted.
  std::vector<index_t> order(static_cast<std::size_t>(n));
  std::vector<char> reached(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> fresh;
  const auto reach = [&](index_t c) {
    if (reached[static_cast<std::size_t>(c)]) return;
    reached[static_cast<std::size_t>(c)] = 1;
    fresh.push_back(static_cast<std::uint64_t>(degree[static_cast<std::size_t>(c)]) << 32 |
                    static_cast<std::uint32_t>(c));
  };
  constexpr index_t kAhead = 4;
  index_t tail = 0;
  for (index_t seed = 0; seed < n; ++seed) {
    if (reached[static_cast<std::size_t>(seed)]) continue;
    reached[static_cast<std::size_t>(seed)] = 1;
    index_t head = tail;
    order[static_cast<std::size_t>(tail++)] = seed;
    for (; head < tail; ++head) {
      // The queue is known a few vertices ahead: fetch their rows early.
      if (head + kAhead < tail) {
        const index_t u = order[static_cast<std::size_t>(head + kAhead)];
        __builtin_prefetch(a.col_idx().data() + a.row_begin(u));
        __builtin_prefetch(at.col_idx.data() + at.row_ptr[static_cast<std::size_t>(u)]);
      }
      const index_t v = order[static_cast<std::size_t>(head)];
      fresh.clear();
      for (index_t c : a.row_cols(v)) reach(c);
      for (index_t c : at_cols(v)) reach(c);
      if (fresh.size() > 16) {
        std::sort(fresh.begin(), fresh.end());
      } else {
        for (std::size_t i = 1; i < fresh.size(); ++i) {
          const std::uint64_t key = fresh[i];
          std::size_t j = i;
          for (; j > 0 && fresh[j - 1] > key; --j) fresh[j] = fresh[j - 1];
          fresh[j] = key;
        }
      }
      for (const std::uint64_t key : fresh) {
        order[static_cast<std::size_t>(tail++)] =
            static_cast<index_t>(key & 0xffffffffu);
      }
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<index_t> natural_order(index_t n) {
  std::vector<index_t> p(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  return p;
}

const char* ordering_name(Ordering o) {
  switch (o) {
    case Ordering::kNatural: return "natural";
    case Ordering::kRcm: return "rcm";
    case Ordering::kNestedDissection: return "nd";
    case Ordering::kAuto: return "auto";
  }
  return "?";
}

}  // namespace javelin
