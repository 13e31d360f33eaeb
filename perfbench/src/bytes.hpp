// Computed-bytes model of the bandwidth-bound kernels.
//
// Each figure is the compulsory traffic of one call derived from array
// sizes: every index and value array is streamed once, every dense vector
// element is read or written once. Cache misses, write-allocate traffic and
// re-reads of gathered vector entries are ignored, so achieved GB/s computed
// from these bytes is a lower bound on what the memory system moved. The
// benchmark labels every such number "computed".
#pragma once

#include <cstdint>

namespace perfbench {

inline constexpr double kIdx = 4.0;  // index_t
inline constexpr double kVal = 8.0;  // value_t

/// Shape of a CSR factor or matrix, as the bytes model needs it.
struct CsrShape {
  std::int64_t n = 0;      ///< rows
  std::int64_t nnz_l = 0;  ///< strictly lower entries (factor only)
  std::int64_t nnz_u = 0;  ///< upper entries incl. diagonal (factor only)
  std::int64_t nnz = 0;    ///< all entries
};

/// y = A x: row_ptr, column indices and values once, x read, y written.
inline double spmv_bytes(const CsrShape& a) {
  const double n = static_cast<double>(a.n);
  return kIdx * (n + 1) + (kIdx + kVal) * static_cast<double>(a.nnz) +
         2 * kVal * n;
}

/// In-place forward sweep L x' = x: row_ptr, strictly lower entries, x read
/// and written once.
inline double trsv_forward_bytes(const CsrShape& f) {
  const double n = static_cast<double>(f.n);
  return kIdx * (n + 1) + (kIdx + kVal) * static_cast<double>(f.nnz_l) +
         2 * kVal * n;
}

/// In-place backward sweep x := U^{-1} x: row_ptr, diagonal positions, upper
/// entries incl. diagonal, x read and written once.
inline double trsv_backward_bytes(const CsrShape& f) {
  const double n = static_cast<double>(f.n);
  return kIdx * (n + 1) + kIdx * n +
         (kIdx + kVal) * static_cast<double>(f.nnz_u) + 2 * kVal * n;
}

/// Permutation gather of r into the level ordering plus the scatter of the
/// solution back: per row one perm index and one value read and one value
/// written, twice.
inline double permute_bytes(const CsrShape& f) {
  return 2 * (kIdx + 2 * kVal) * static_cast<double>(f.n);
}

/// z = (LU)^{-1} r: gather, forward sweep, backward sweep, scatter.
inline double apply_bytes(const CsrShape& f) {
  return permute_bytes(f) + trsv_forward_bytes(f) + trsv_backward_bytes(f);
}

/// Panel apply over k right-hand sides swept in register blocks of `block`
/// columns: the factor's index and value arrays are streamed once per
/// block, the vector traffic scales with k.
inline double apply_panel_bytes(const CsrShape& f, int k, int block) {
  const double n = static_cast<double>(f.n);
  const double blocks = static_cast<double>((k + block - 1) / block);
  const double factor = 2 * kIdx * (n + 1) + kIdx * n +
                        (kIdx + kVal) * static_cast<double>(f.nnz_l + f.nnz_u);
  const double vectors_per_rhs = 2 * (kIdx + 2 * kVal) * n + 4 * kVal * n;
  return blocks * factor + static_cast<double>(k) * vectors_per_rhs;
}

/// STREAM triad a = b + s c over arrays of `len` doubles: two reads, one
/// write per element (write-allocate not counted, as in STREAM).
inline double triad_bytes(std::int64_t len) {
  return 3 * kVal * static_cast<double>(len);
}

}  // namespace perfbench
