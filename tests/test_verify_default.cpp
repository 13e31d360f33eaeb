// IluOptions::verify_schedules resolves its default inside the library.
//
// This translation unit is compiled WITHOUT NDEBUG whatever the build type
// (CMake adds -UNDEBUG), and JAVELIN_LIBRARY_NDEBUG tells it how the library
// itself was built. A default that followed the caller's NDEBUG would verify
// every schedule of a release library from this program: the
// `prepare_verify` span would appear where the library says verification is
// off. Explicit true/false must win in both build types.
#ifdef NDEBUG
#error "test_verify_default must be compiled without NDEBUG"
#endif

#include <cstring>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/obs/trace.hpp"
#include "test_util.hpp"

using namespace javelin;

namespace {

/// prepare_verify spans one ilu_prepare emits under `opts`.
int verify_spans(const CsrMatrix& a, const IluOptions& opts) {
  obs::TraceSession& ts = obs::TraceSession::instance();
  ts.clear();
  ts.enable();
  const Factorization f = ilu_prepare(a, opts);
  ts.disable();
  int spans = 0;
  for (const auto& [tid, events] : ts.snapshot()) {
    for (const obs::TraceEvent& e : events) {
      spans += e.ph == 'B' && std::strcmp(e.name, "prepare_verify") == 0;
    }
  }
  ts.clear();
  return spans;
}

}  // namespace

int main() {
  constexpr bool kLibraryVerifies = JAVELIN_LIBRARY_NDEBUG == 0;
  const CsrMatrix a = gen::laplacian2d(20, 20, 5);

  const IluOptions defaults;
  CHECK_MSG(!defaults.verify_schedules.has_value(),
            "the header set a default from this unit's NDEBUG");
  CHECK_MSG(verify_schedules_enabled(defaults) == kLibraryVerifies,
            "default resolved to %d, library build verifies: %d",
            static_cast<int>(verify_schedules_enabled(defaults)),
            static_cast<int>(kLibraryVerifies));
  CHECK_MSG(verify_spans(a, defaults) == (kLibraryVerifies ? 1 : 0),
            "default options: %d prepare_verify spans",
            verify_spans(a, defaults));

  for (const bool on : {false, true}) {
    IluOptions opts;
    opts.verify_schedules = on;
    CHECK_MSG(verify_schedules_enabled(opts) == on, "explicit %d ignored",
              static_cast<int>(on));
    CHECK_MSG(verify_spans(a, opts) == (on ? 1 : 0),
              "explicit %d: wrong prepare_verify span count",
              static_cast<int>(on));
  }
  return javelin::test::finish("test_verify_default");
}
