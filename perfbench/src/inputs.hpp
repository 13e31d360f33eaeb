// Seeded inputs of the three workloads. The matrices are fixed (their level
// structure is what each workload is about); the right-hand sides, the
// apply vectors and the powerflow value perturbations come from --seed.
// Every stream gets its own generator keyed by (seed, stream, index), so a
// value never depends on how many other values were drawn before it.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "javelin/gen/generators.hpp"
#include "javelin/sparse/csr.hpp"
#include "javelin/support/rng.hpp"

namespace perfbench {

using javelin::CsrMatrix;
using javelin::index_t;
using javelin::value_t;

enum class Stream : std::uint64_t {
  kSolveRhs = 1,
  kApplyVec = 2,
  kPerturb = 3,
  kPanelRhs = 4,
};

inline javelin::Xoshiro256 stream_rng(std::uint64_t seed, Stream s,
                                      std::uint64_t index) {
  javelin::SplitMix64 mix(seed ^ (static_cast<std::uint64_t>(s) << 56));
  std::uint64_t key = mix.next();
  javelin::SplitMix64 mix2(key ^ (index * 0xD1B54A32D192ED03ull));
  return javelin::Xoshiro256(mix2.next());
}

/// Vector of n entries uniform in [-1, 1).
inline std::vector<value_t> seeded_vector(std::uint64_t seed, Stream s,
                                          std::uint64_t index, index_t n) {
  javelin::Xoshiro256 rng = stream_rng(seed, s, index);
  std::vector<value_t> v(static_cast<std::size_t>(n));
  for (value_t& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Newton-step values of the powerflow matrix: every entry of the base
/// matrix scaled by (1 + eps u), u uniform in [-1, 1) for off-diagonals and
/// u = 1 on the diagonal. Scaling the diagonal by the largest factor keeps a
/// strictly diagonally dominant base strictly dominant, so every step stays
/// factorable by ILU(0). Writes into `out`, which has base's pattern.
inline void perturb_values(const CsrMatrix& base, std::uint64_t seed,
                           std::uint64_t step, double eps, CsrMatrix& out) {
  javelin::Xoshiro256 rng = stream_rng(seed, Stream::kPerturb, step);
  std::span<const value_t> v = base.values();
  std::span<value_t> w = out.values_mut();
  for (index_t r = 0; r < base.rows(); ++r) {
    for (index_t k = base.row_begin(r); k < base.row_end(r); ++k) {
      const std::size_t uk = static_cast<std::size_t>(k);
      const double u = base.col_idx()[uk] == r ? 1.0 : rng.uniform(-1.0, 1.0);
      w[uk] = v[uk] * (1.0 + eps * u);
    }
  }
}

/// Relative perturbation of a powerflow Newton step.
inline constexpr double kPerturbEps = 0.05;

/// The workload's matrix: the 64^3 7-point Laplacian (wide levels) for
/// poisson3d, the TSOPF_RS_b300_c2 analog at scale 2
/// (deep, narrow levels; unsymmetric pattern) for powerflow. Throws on an
/// unknown workload name.
inline CsrMatrix workload_matrix(const std::string& workload) {
  if (workload == "poisson3d") {
    return javelin::gen::laplacian3d(64, 64, 64, 7);
  }
  if (workload == "powerflow") {
    javelin::gen::SuiteOptions so;
    so.scale = 2.0;
    return javelin::gen::make_suite_matrix("TSOPF_RS_b300_c2", so).matrix;
  }
  throw std::invalid_argument("unknown workload: " + workload);
}

}  // namespace perfbench
