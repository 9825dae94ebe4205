/**
 * @file
 * camj_lint: the static spec analyzer as a command-line tool. Lints
 * one or more spec/sweep documents without simulating anything:
 *
 *   camj_lint detector_sweep.json
 *   camj_lint specs/a.json specs/b.json --werror
 *
 * Output is gcc-style, one finding per line, prefixed with the file:
 *
 *   detector.json: error CAMJ-E003 at units[Classifier].\
 *       inputMemories[0]: unit 'Classifier' references unknown \
 *       memory 'ActBfu' (hint: registered memories: ActBuf)
 *
 * Documents with a sweepGrid additionally get the grid analysis: how
 * many of the expanded points are provably infeasible, and why.
 *
 * Exit codes: 0 clean (or warnings without --werror), 1 findings,
 * 2 usage errors. docs/lint_rules.md catalogues every rule code.
 * `camj_sweep lint` runs the same command (analysis/lint_command.h).
 */

#include <cstdio>

#include "analysis/lint_command.h"
#include "common/logging.h"

namespace
{

int
usage(std::FILE *to)
{
    std::fprintf(to,
"usage:\n"
"  camj_lint <spec-or-sweep.json>... [options]\n"
"      statically analyze spec documents (no simulation)\n"
"      --werror                    treat warnings as errors\n"
"      --quiet                     findings only, no per-file summary\n");
    return to == stdout ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    camj::setLoggingEnabled(false);
    return camj::analysis::lintCommand(argc - 1, argv + 1, usage);
}
