/**
 * @file
 * The lint command behind both `camj_lint` and `camj_sweep lint`:
 * one routine, so both front ends print the same findings and exit
 * the same way. Each document gets SpecAnalyzer::analyzeDocument; a
 * sweep document with a clean base also gets checkAxisPaths(), the
 * axis-value probe `camj_sweep run` makes on opening the grid, and
 * the GridAnalyzer summary.
 */

#ifndef CAMJ_ANALYSIS_LINT_COMMAND_H
#define CAMJ_ANALYSIS_LINT_COMMAND_H

#include <cstdio>

namespace camj::analysis
{

/**
 * Lint the files named in @p argv (options: --werror, --quiet).
 * Returns 0 clean (or warnings without --werror), 1 findings, or
 * what @p usage (the calling tool's help printer) returns on an
 * argument error.
 */
int lintCommand(int argc, char **argv, int (*usage)(std::FILE *));

} // namespace camj::analysis

#endif // CAMJ_ANALYSIS_LINT_COMMAND_H
