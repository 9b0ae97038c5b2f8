// Precondition / invariant checking helpers.
//
// `require` guards public-API preconditions (throws std::invalid_argument);
// `ensure` guards internal invariants and postconditions (throws
// std::logic_error). Both are plain functions so call sites stay
// expression-friendly and macro-free.
#ifndef BNN_UTIL_CHECK_H
#define BNN_UTIL_CHECK_H

// The codebase requires C++20 (defaulted operator== in quant/qtensor.h,
// CTAD and ranged constructs elsewhere). Without this guard a C++17 build
// dies in a confusing cascade of comparison-operator errors; fail here with
// one readable diagnostic instead.
#if (defined(_MSVC_LANG) ? _MSVC_LANG : __cplusplus) < 202002L
#error "This project requires C++20: compile with -std=c++20 (or /std:c++20)."
#endif

#include <stdexcept>
#include <string>

namespace bnn::util {

// Throw std::invalid_argument with `what` unless `condition` holds. The
// `const char*` overloads build no std::string on a passing check, so hot
// paths that check with literal messages stay allocation-free; the
// std::string overloads serve composed messages.
inline void require(bool condition, const char* what) {
  if (!condition) throw std::invalid_argument(what);
}
inline void require(bool condition, const std::string& what) {
  if (!condition) throw std::invalid_argument(what);
}

// Throw std::logic_error with `what` unless `condition` holds.
inline void ensure(bool condition, const char* what) {
  if (!condition) throw std::logic_error(what);
}
inline void ensure(bool condition, const std::string& what) {
  if (!condition) throw std::logic_error(what);
}

}  // namespace bnn::util

#endif  // BNN_UTIL_CHECK_H
