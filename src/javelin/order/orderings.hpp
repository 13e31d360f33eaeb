// Preorderings applied by ilu_prepare before the symbolic phase (paper §IV
// "Preordering", §VII Table II). Both return a NEW-TO-OLD permutation: row r
// of the ordered matrix P A Pᵀ is row perm[r] of the input.
//
// The paper's level counts are those of RCM/ND-ordered matrices; natural
// order on a deep matrix leaves thousands of narrow levels. RCM is the cheap
// default candidate (IluOptions::ordering = kAuto tries it), nested
// dissection an explicit opt-in.
#pragma once

#include <vector>

#include "javelin/sparse/csr.hpp"

namespace javelin {

/// Preordering choice (IluOptions::ordering, TwoStagePlan::ordering).
enum class Ordering {
  kNatural,           ///< the input order
  kRcm,               ///< reverse Cuthill–McKee (rcm_order)
  kNestedDissection,  ///< nested dissection (nested_dissection_order)
  /// RCM when natural order is deep in narrow levels and RCM at least halves
  /// the level count, natural order otherwise (ilu_prepare). Never the
  /// resolved ordering of a plan.
  kAuto,
};

const char* ordering_name(Ordering o);

/// Reverse Cuthill–McKee on the pattern of A + Aᵀ without forming it: a
/// vertex's neighbours are its row of A and its row of Aᵀ (a pattern-only
/// transpose). Each connected component is visited breadth-first from its
/// lowest-numbered vertex, newly reached neighbours in increasing order of
/// nnz(A row) + nnz(Aᵀ row) (ties by index); the final order is reversed.
/// No pseudo-peripheral start search: it would cost a BFS per try for a
/// level count the plan's rule already judges. Deterministic.
std::vector<index_t> rcm_order(const CsrMatrix& a);

/// Options for nested dissection.
struct NdOptions {
  index_t leaf_size = 64;   ///< stop recursing below this many vertices
  int max_depth = 48;       ///< recursion guard
};

/// Recursive nested dissection: BFS-halving edge separator converted to a
/// vertex separator; parts ordered recursively, separator last. Stands in for
/// METIS ND. Costs 2.5–9× an RCM, so ilu_prepare runs it only on request.
std::vector<index_t> nested_dissection_order(const CsrMatrix& a,
                                             const NdOptions& opts = {});

/// Natural ordering (identity permutation of size n).
std::vector<index_t> natural_order(index_t n);

}  // namespace javelin
