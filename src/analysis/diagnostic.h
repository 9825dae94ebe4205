/**
 * @file
 * Diagnostic: one finding of the static spec analyzer — a stable rule
 * code, a severity, a field path in the grid-axis syntax the rest of
 * the spec layer speaks (spec::parseSpecPath / spec::diff), a message,
 * and an optional fix-it hint.
 *
 * Rule codes are part of the tool's stable surface (scripts grep for
 * them, tests pin them, docs/lint_rules.md catalogues them): never
 * renumber an existing code, only append. Codes come in three bands:
 *
 *   CAMJ-Exxx  errors   — the document cannot simulate; materialize()
 *                         or simulate() would throw ConfigError.
 *   CAMJ-Wxxx  warnings — simulates, but the design is suspicious.
 *   CAMJ-Ixxx  info     — noteworthy but intentional-looking.
 *   CAMJ-Dxxx  dynamic  — failures only the simulator can diagnose
 *                         (pipeline stall or drain deadlock, frame
 *                         budget); the static analyzer never emits
 *                         these, but infeasible SimulationOutcomes
 *                         carry them. D003 marks a failure with no
 *                         catalogue code.
 *
 * RuleCode (common/logging.h) names every code; fatal(RuleCode, ...)
 * stamps it on the ConfigError at the throw site.
 */

#ifndef CAMJ_ANALYSIS_DIAGNOSTIC_H
#define CAMJ_ANALYSIS_DIAGNOSTIC_H

#include <string>
#include <vector>

#include "common/logging.h"

namespace camj::analysis
{

/** How bad a finding is. */
enum class Severity
{
    /** The spec cannot materialize/simulate. */
    Error,
    /** Simulates, but looks wrong. */
    Warning,
    /** Worth knowing, probably intentional. */
    Info,
};

/** Human-readable severity name ("error"/"warning"/"info"). */
const char *severityName(Severity severity);

/** One finding of the analyzer. */
struct Diagnostic
{
    /** Stable rule code, e.g. "CAMJ-W003". */
    std::string code;
    Severity severity = Severity::Error;
    /**
     * Field path of the offending value in grid-axis syntax
     * ("memories[ActBuf].nodeNm", "units[Classifier].inputMemories[0]",
     * "stages[Conv]"); empty when the finding concerns the document
     * as a whole.
     */
    std::string path;
    /** What is wrong. */
    std::string message;
    /** Optional fix-it hint ("insert a charge-to-voltage converter"). */
    std::string hint;

    /** "error CAMJ-E003 at units[X].inputMemories[0]: ... (hint: ...)" */
    std::string format() const;
};

/** Convenience constructors keeping rule bodies one-liners. */
Diagnostic makeError(std::string code, std::string path,
                     std::string message, std::string hint = "");
Diagnostic makeWarning(std::string code, std::string path,
                       std::string message, std::string hint = "");
Diagnostic makeInfo(std::string code, std::string path,
                    std::string message, std::string hint = "");

/** The error a thrown ConfigError amounts to: its code and text. */
Diagnostic makeError(const ConfigError &e, std::string path = "");

/** True when any diagnostic in @p diags is an error. */
bool hasErrors(const std::vector<Diagnostic> &diags);

/** Count of diagnostics at @p severity. */
size_t countSeverity(const std::vector<Diagnostic> &diags,
                     Severity severity);

/** Render every diagnostic, one per line (prefixing @p subject when
 *  non-empty, the way compilers prefix the file name). */
std::string formatDiagnostics(const std::vector<Diagnostic> &diags,
                              const std::string &subject = "");

} // namespace camj::analysis

#endif // CAMJ_ANALYSIS_DIAGNOSTIC_H
