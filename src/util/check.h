// Checked assertions used throughout the library. The library does not use
// exceptions; contract violations abort with a diagnostic, matching the
// style of production database engines (precondition failures are bugs, not
// recoverable conditions).
#ifndef DIVERSE_UTIL_CHECK_H_
#define DIVERSE_UTIL_CHECK_H_

#include <cstdio>
#include <cstdlib>

namespace diverse {
namespace internal_check {

[[noreturn]] inline void CheckFail(const char* file, int line,
                                   const char* expr, const char* msg) {
  std::fprintf(stderr, "CHECK failed at %s:%d: %s%s%s\n", file, line, expr,
               msg[0] ? " — " : "", msg);
  std::abort();
}

}  // namespace internal_check
}  // namespace diverse

// Always-on invariant check. `msg` is optional context.
#define DIVERSE_CHECK(expr)                                                  \
  do {                                                                       \
    if (!(expr)) {                                                           \
      ::diverse::internal_check::CheckFail(__FILE__, __LINE__, #expr, "");   \
    }                                                                        \
  } while (0)

#define DIVERSE_CHECK_MSG(expr, msg)                                         \
  do {                                                                       \
    if (!(expr)) {                                                           \
      ::diverse::internal_check::CheckFail(__FILE__, __LINE__, #expr, msg);  \
    }                                                                        \
  } while (0)

// Unconditional failure, for a path that must not be reached (past a
// switch over every enumerator, say). It is a plain call of a [[noreturn]]
// function, so the compiler sees that control ends here in every build.
#define DIVERSE_FAIL(msg) \
  ::diverse::internal_check::CheckFail(__FILE__, __LINE__, "unreachable", msg)

// Debug-only check; compiled out in NDEBUG builds for hot paths.
#ifdef NDEBUG
#define DIVERSE_DCHECK(expr) \
  do {                       \
  } while (0)
#else
#define DIVERSE_DCHECK(expr) DIVERSE_CHECK(expr)
#endif

#endif  // DIVERSE_UTIL_CHECK_H_
