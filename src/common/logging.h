/**
 * @file
 * Error reporting in the gem5 style, adapted for a library.
 *
 * gem5 distinguishes fatal() (the user's fault: bad configuration,
 * invalid arguments) from panic() (the simulator's fault: a broken
 * internal invariant). Because CamJ is a library that is also driven
 * from unit tests, both report through exceptions instead of
 * terminating the process:
 *
 *   - fatal(...)  throws ConfigError  — the design description is
 *     invalid (mismatched signal domains, stalls, cycles in the DAG...).
 *     fatal(RuleCode::E010, ...) also tags the error with its
 *     docs/lint_rules.md code, so callers never parse the message.
 *   - panic(...)  throws InternalError — a CamJ bug.
 *   - warn(...) / inform(...) print to stderr/stdout and continue.
 */

#ifndef CAMJ_COMMON_LOGGING_H
#define CAMJ_COMMON_LOGGING_H

#include <cstdarg>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace camj
{

/**
 * A rule code of the docs/lint_rules.md catalogue: Exxx errors the
 * static analyzer also proves, Wxxx/Ixxx analyzer-only findings, and
 * Dxxx verdicts only simulation reaches. D003 means "no catalogue
 * code" (an internal, tool or I/O error). Codes are permanent: append
 * new ones, keeping D003 last.
 */
enum class RuleCode : unsigned char
{
    E001, E002, E003, E004, E005, E006, E007, E008, E009,
    E010, E011, E012, E013, E014, E015, E016, E017, E018,
    W001, W002, W003, W004, W005, W006, W007,
    I001, I002,
    D001, D002, D003,
};

/** Number of RuleCode constants. */
inline constexpr size_t kRuleCodeCount =
    static_cast<size_t>(RuleCode::D003) + 1;

/** "CAMJ-E010" for RuleCode::E010. */
const char *ruleCodeName(RuleCode code);

/** Inverse of ruleCodeName(); nullopt for any other text. */
std::optional<RuleCode> ruleCodeFromName(std::string_view name);

/** Raised by fatal(): the user-supplied design description is invalid. */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(const std::string &what,
                         RuleCode code = RuleCode::D003)
        : std::runtime_error(what), code_(code) {}

    /** The catalogue code the throw site assigned (D003: none). */
    RuleCode code() const { return code_; }

  private:
    RuleCode code_;
};

/** Raised by panic(): an internal CamJ invariant was violated. */
class InternalError : public std::logic_error
{
  public:
    explicit InternalError(const std::string &what)
        : std::logic_error(what) {}
};

/** printf-style formatting into a std::string. */
std::string vstrprintf(const char *fmt, std::va_list args);

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a user configuration error. Never returns.
 *
 * @throws ConfigError always.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** fatal() whose ConfigError carries @p code. */
[[noreturn]] void fatal(RuleCode code, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/**
 * Report an internal invariant violation. Never returns.
 *
 * @throws InternalError always.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning for questionable-but-survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Suppress or restore warn()/inform() output (quiet test runs). */
void setLoggingEnabled(bool enabled);

} // namespace camj

#endif // CAMJ_COMMON_LOGGING_H
