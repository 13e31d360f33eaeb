// Tests of the benchmark's own helpers: percentiles, the tail rule, the
// clean/stolen sample split, the computed-bytes model, seed determinism of
// the inputs, span self times and the cache-size parser. Build target
// perfbench_tests; exits non-zero on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "bytes.hpp"
#include "env.hpp"
#include "inputs.hpp"
#include "javelin/gen/generators.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int g_checks = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    ++g_checks;                                                          \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                               \
      std::exit(1);                                                      \
    }                                                                    \
  } while (0)

bool near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

template <class F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_percentile() {
  using perfbench::percentile;
  // Python: statistics.quantiles([1..5], n=4, method="inclusive") = [2, 3, 4]
  const std::vector<double> v = {5, 1, 4, 2, 3};
  CHECK(near(percentile(v, 25), 2.0));
  CHECK(near(percentile(v, 50), 3.0));
  CHECK(near(percentile(v, 75), 4.0));
  CHECK(near(percentile(v, 0), 1.0));
  CHECK(near(percentile(v, 100), 5.0));
  CHECK(near(percentile({1, 2, 3, 4}, 50), 2.5));
  CHECK(near(percentile({1, 2}, 90), 1.9));
  CHECK(near(perfbench::median({7.0}), 7.0));
  CHECK(throws([] { (void)percentile({}, 50); }));
}

void test_tail() {
  using perfbench::tail;
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  // 100 samples: the 90th value has exactly ten above it.
  perfbench::Tail t = tail(v);
  CHECK(t.value == 90.0 && near(t.pct, 90.0) && t.n == 100);
  // Order of the input does not matter.
  std::vector<double> r(v.rbegin(), v.rend());
  CHECK(tail(r).value == 90.0);
  // 1000 samples: p99.
  std::vector<double> w;
  for (int i = 1; i <= 1000; ++i) w.push_back(i);
  t = tail(w);
  CHECK(t.value == 990.0 && near(t.pct, 99.0));
  // Smallest sample that has a tail: 11 values, the minimum is the tail.
  std::vector<double> e(v.begin(), v.begin() + 11);
  t = tail(e);
  CHECK(t.value == 1.0 && t.n == 11);
  // Ten samples have no sample with ten beyond it.
  CHECK(throws([&] { (void)tail(std::vector<double>(v.begin(), v.begin() + 10)); }));
}

void test_samples_split() {
  perfbench::Samples s;
  s.push(1.0);
  s.push(2.0);
  s.end_step(true);   // clean step: both samples count
  s.push(9.0);
  s.end_step(false);  // stolen step: kept in `all` only
  s.push(3.0);
  s.end_step(true);
  CHECK((s.all == std::vector<double>{1.0, 2.0, 9.0, 3.0}));
  CHECK((s.clean == std::vector<double>{1.0, 2.0, 3.0}));
  CHECK(&s.reported(3) == &s.clean);
  CHECK(&s.reported(4) == &s.all);  // too few clean samples: report all
  s.end_step(true);                 // an empty step adds nothing
  CHECK(s.clean.size() == 3);
}

void test_bytes_model() {
  using namespace perfbench;
  // 3x3 tridiagonal-like factor: 2 strictly lower, 5 upper incl. diagonal.
  CsrShape f;
  f.n = 3;
  f.nnz_l = 2;
  f.nnz_u = 5;
  f.nnz = 7;
  CHECK(spmv_bytes(f) == 4 * 4 + 12 * 7 + 16 * 3);
  CHECK(trsv_forward_bytes(f) == 4 * 4 + 12 * 2 + 16 * 3);
  CHECK(trsv_backward_bytes(f) == 4 * 4 + 4 * 3 + 12 * 5 + 16 * 3);
  CHECK(permute_bytes(f) == 2 * 20 * 3);
  CHECK(apply_bytes(f) ==
        permute_bytes(f) + trsv_forward_bytes(f) + trsv_backward_bytes(f));
  // A one-column panel moves exactly what one scalar apply moves.
  CHECK(near(apply_panel_bytes(f, 1, 8), apply_bytes(f)));
  // Factor arrays stream once per register block, vectors once per column.
  const double vec = apply_bytes(f) - (apply_panel_bytes(f, 2, 8) - apply_bytes(f));
  CHECK(near(apply_panel_bytes(f, 8, 8), vec + 8 * (apply_bytes(f) - vec)));
  CHECK(near(apply_panel_bytes(f, 16, 8) - apply_panel_bytes(f, 8, 8),
             apply_panel_bytes(f, 8, 8)));
  CHECK(triad_bytes(1000) == 24000);
}

void test_seed_determinism() {
  using namespace perfbench;
  const auto a = seeded_vector(7, Stream::kSolveRhs, 3, 1000);
  const auto b = seeded_vector(7, Stream::kSolveRhs, 3, 1000);
  CHECK(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  CHECK(seeded_vector(8, Stream::kSolveRhs, 3, 1000) != a);
  CHECK(seeded_vector(7, Stream::kSolveRhs, 4, 1000) != a);
  CHECK(seeded_vector(7, Stream::kApplyVec, 3, 1000) != a);
  for (double x : a) CHECK(x >= -1.0 && x < 1.0);

  const CsrMatrix base = javelin::gen::power_system(400, 16, 32, 5);
  CsrMatrix p1 = base, p2 = base, p3 = base;
  perturb_values(base, 7, 2, kPerturbEps, p1);
  perturb_values(base, 7, 2, kPerturbEps, p2);
  perturb_values(base, 8, 2, kPerturbEps, p3);
  CHECK(std::memcmp(p1.values().data(), p2.values().data(),
                    p1.values().size() * sizeof(double)) == 0);
  CHECK(!std::equal(p1.values().begin(), p1.values().end(), p3.values().begin()));
  // Every perturbed step keeps strict diagonal dominance (factorable).
  for (index_t r = 0; r < p1.rows(); ++r) {
    double diag = 0.0, off = 0.0;
    for (index_t k = p1.row_begin(r); k < p1.row_end(r); ++k) {
      const double v = std::fabs(p1.values()[static_cast<std::size_t>(k)]);
      if (p1.col_idx()[static_cast<std::size_t>(k)] == r) diag = v;
      else off += v;
    }
    CHECK(diag > off);
  }
  // Workload matrices are fixed, independent of the seed.
  const CsrMatrix m1 = workload_matrix("powerflow");
  const CsrMatrix m2 = workload_matrix("powerflow");
  CHECK(m1.rows() == 56676 && m1.nnz() == m2.nnz());
  CHECK(std::equal(m1.values().begin(), m1.values().end(), m2.values().begin()));
  CHECK(throws([] { (void)workload_matrix("nope"); }));
}

void test_span_self_time() {
  perfbench::SpanLog log;
  const int step = log.open("step", 0);
  const int solve = log.open("solve", 0);
  log.close(solve);
  log.close(step);
  auto totals = log.totals();
  const auto& spans = log.spans();
  CHECK(spans.size() == 2 && spans[1].parent == 0 && spans[0].parent == -1);
  const double step_d = spans[0].t1 - spans[0].t0;
  const double solve_d = spans[1].t1 - spans[1].t0;
  CHECK(near(totals["step"].self_s, step_d - solve_d, 1e-9));
  CHECK(near(totals["solve"].self_s, solve_d, 1e-9));
  // A null log makes Scope a no-op.
  { perfbench::SpanLog::Scope s(nullptr, "x", 1); }
  CHECK(log.spans().size() == 2);
}

void test_cache_size_parser() {
  CHECK(perfbench::parse_cache_size("48K") == 48 << 10);
  CHECK(perfbench::parse_cache_size("300M") == std::int64_t{300} << 20);
  CHECK(perfbench::parse_cache_size("512") == 512);
  CHECK(perfbench::parse_cache_size("") == 0);
}

}  // namespace

int main() {
  test_percentile();
  test_tail();
  test_samples_split();
  test_bytes_model();
  test_seed_determinism();
  test_span_self_time();
  test_cache_size_parser();
  std::printf("perfbench_tests: %d checks passed\n", g_checks);
  return 0;
}
