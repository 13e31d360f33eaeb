#include "javelin/ilu/options.hpp"

namespace javelin {

bool verify_schedules_enabled(const IluOptions& opts) {
  // NDEBUG here is the library's own build flag, not the caller's.
#ifdef NDEBUG
  constexpr bool kLibraryDefault = false;
#else
  constexpr bool kLibraryDefault = true;
#endif
  return opts.verify_schedules.value_or(kLibraryDefault);
}

}  // namespace javelin
