/**
 * @file
 * The lint gate: one check of a sweep document, shared by `camj_lint`,
 * `camj_sweep lint` and the sweep service's admission, so a document
 * one of them accepts none of the others rejects. checkSweepDocument()
 * runs SpecAnalyzer::analyzeDocument, then parses the sweep document,
 * probes its axis paths (checkAxisPaths) and opens the grid, the way
 * `camj_sweep run` does; an accepted document's grid then goes through
 * the GridAnalyzer once, for lint's summary and admission's pruned
 * count. lintCommand() is the command-line front end
 * both lint tools call, so they print the same findings and exit the
 * same way.
 */

#ifndef CAMJ_ANALYSIS_LINT_COMMAND_H
#define CAMJ_ANALYSIS_LINT_COMMAND_H

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/grid_analyzer.h"
#include "spec/grid.h"

namespace camj::analysis
{

/** What checkSweepDocument() found about one document. */
struct DocumentCheck
{
    /** The stage that rejected the document, if any. */
    enum class Stage
    {
        /** Accepted: document is set. */
        Passed,
        /** The text is not JSON. */
        Parse,
        /** SpecAnalyzer found errors in the document. */
        Analysis,
        /** The sweep document itself is broken: grid validation, a
         *  dangling axis path, or an axis value the grid rejects. */
        Document,
    };

    Stage failed = Stage::Passed;
    /** Every finding, warnings included, in the order found. */
    std::vector<Diagnostic> diagnostics;
    /** The parsed sweep document; set only when failed == Passed. */
    std::optional<spec::SweepDocument> document;
    /** GridAnalyzer's verdict on document's grid; set with it. */
    std::optional<GridAnalysis> grid;
};

/** Check one sweep (or plain spec) document's text. Never throws
 *  ConfigError: a rejection is a diagnostic carrying its code. */
DocumentCheck checkSweepDocument(const std::string &text);

/**
 * Lint the files named in @p argv (options: --werror, --quiet).
 * Returns 0 clean (or warnings without --werror), 1 findings, or
 * what @p usage (the calling tool's help printer) returns on an
 * argument error.
 */
int lintCommand(int argc, char **argv, int (*usage)(std::FILE *));

} // namespace camj::analysis

#endif // CAMJ_ANALYSIS_LINT_COMMAND_H
