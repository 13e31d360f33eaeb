// Minimal check/report harness for the ctest-registered property tests: no
// external framework in the container, so tests are plain executables whose
// exit code is the failure count.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <span>
#include <vector>

#include "javelin/ilu/factorization.hpp"
#include "javelin/support/types.hpp"

namespace javelin::test {

/// Deterministic uniform(-1, 1) vector shared by the solver-class tests.
inline std::vector<value_t> random_vector(index_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<value_t> dist(-1.0, 1.0);
  std::vector<value_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = dist(rng);
  return v;
}

inline int failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);       \
      ++::javelin::test::failures;                                      \
    }                                                                   \
  } while (0)

#define CHECK_MSG(cond, ...)                                            \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::printf("FAIL %s:%d: %s (", __FILE__, __LINE__, #cond);       \
      std::printf(__VA_ARGS__);                                         \
      std::printf(")\n");                                               \
      ++::javelin::test::failures;                                      \
    }                                                                   \
  } while (0)

/// Exact (bitwise) equality of two value sequences; reports the first
/// mismatch location and magnitude.
inline bool bitwise_equal(std::span<const value_t> a,
                          std::span<const value_t> b) {
  if (a.size() != b.size()) {
    std::printf("  size mismatch: %zu vs %zu\n", a.size(), b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      std::printf("  first mismatch at %zu: %.17g vs %.17g (diff %.3g)\n", i,
                  a[i], b[i], std::abs(a[i] - b[i]));
      return false;
    }
  }
  return true;
}

inline value_t max_abs_diff(std::span<const value_t> a,
                            std::span<const value_t> b) {
  value_t d = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

/// The CSR-LS baseline factor: ilu_prepare, every level of both sweeps
/// tagged kBarrier, then the numeric phase — so the factor itself is also
/// computed barrier-to-barrier, not only the sweeps that use it.
inline Factorization ilu_factor_csrls(const CsrMatrix& a,
                                      const IluOptions& opts = {}) {
  Factorization f = ilu_prepare(a, opts);
  tag_all_levels(f, LevelRegime::kBarrier);
  ilu_factor_numeric(f);
  return f;
}

/// True when every level of s is tagged kBarrier.
inline bool all_barrier(const ExecSchedule& s) {
  for (std::uint8_t b : s.level_tags) {
    if (b != static_cast<std::uint8_t>(LevelRegime::kBarrier)) return false;
  }
  return static_cast<index_t>(s.level_tags.size()) == s.num_levels;
}

inline int finish(const char* name) {
  if (failures == 0) {
    std::printf("PASS %s\n", name);
  } else {
    std::printf("%d FAILURE(S) in %s\n", failures, name);
  }
  return failures;
}

}  // namespace javelin::test
