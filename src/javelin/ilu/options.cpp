#include "javelin/ilu/options.hpp"

namespace javelin {

const char* lower_method_name(LowerMethod m) {
  switch (m) {
    case LowerMethod::kNone: return "none";
    case LowerMethod::kEvenRows: return "ER";
    case LowerMethod::kAuto: return "auto";
  }
  return "?";
}

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
