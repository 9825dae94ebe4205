#include "analysis/lint_command.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "common/logging.h"
#include "spec/grid.h"

namespace camj::analysis
{

namespace
{

/** Lint one file, printing its findings, and count them into
 *  @p errors and @p warnings. */
void
lintFile(const std::string &path, bool quiet, size_t &errors,
         size_t &warnings)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "%s: error: cannot read file\n",
                     path.c_str());
        ++errors;
        return;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const DocumentCheck check = checkSweepDocument(buf.str());
    const std::vector<Diagnostic> &diags = check.diagnostics;
    std::fputs(formatDiagnostics(diags, path).c_str(), stdout);
    const size_t file_errors = countSeverity(diags, Severity::Error);
    const size_t file_warnings = countSeverity(diags, Severity::Warning);
    errors += file_errors;
    warnings += file_warnings;

    if (check.grid && check.grid->totalPoints() > 1) {
        const GridAnalysis &result = *check.grid;
        std::fputs(result.summary().c_str(), stdout);
        if (!quiet)
            std::printf("%s: grid expands to %zu point(s), %zu "
                        "provably infeasible\n",
                        path.c_str(), result.totalPoints(),
                        result.prunedPoints());
    }
    if (!quiet)
        std::printf("%s: %zu error(s), %zu warning(s)\n", path.c_str(),
                    file_errors, file_warnings);
}

} // namespace

DocumentCheck
checkSweepDocument(const std::string &text)
{
    using Stage = DocumentCheck::Stage;
    DocumentCheck check;
    Stage stage = Stage::Parse;
    try {
        const json::Value raw = json::Value::parse(text);
        stage = Stage::Analysis;
        check.diagnostics = SpecAnalyzer().analyzeDocument(raw);
        if (hasErrors(check.diagnostics)) {
            check.failed = Stage::Analysis;
            return check;
        }
        // The grid only means something over a base spec that parses
        // and passes the analysis.
        stage = Stage::Document;
        spec::SweepDocument sweep = spec::sweepDocumentFromJson(text);
        for (Diagnostic &d : checkAxisPaths(sweep))
            check.diagnostics.push_back(std::move(d));
        if (hasErrors(check.diagnostics)) {
            check.failed = Stage::Document;
            return check;
        }
        // Opening the grid probes every axis value, as a run does.
        sweep.source();
        check.grid = GridAnalyzer().analyze(sweep);
        check.document = std::move(sweep);
    } catch (const ConfigError &e) {
        check.diagnostics.push_back(makeError(e));
        check.failed = stage;
    }
    return check;
}

int
lintCommand(int argc, char **argv, int (*usage)(std::FILE *))
{
    bool werror = false, quiet = false;
    std::vector<std::string> files;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return usage(stdout);
        if (arg == "--werror")
            werror = true;
        else if (arg == "--quiet")
            quiet = true;
        else if (arg[0] != '-')
            files.push_back(arg);
        else {
            std::fprintf(stderr, "error: unexpected argument '%s'\n",
                         arg.c_str());
            return usage(stderr);
        }
    }
    if (files.empty()) {
        std::fprintf(stderr, "error: no input files\n");
        return usage(stderr);
    }

    size_t errors = 0, warnings = 0;
    for (const std::string &path : files)
        lintFile(path, quiet, errors, warnings);
    return errors > 0 || (werror && warnings > 0) ? 1 : 0;
}

} // namespace camj::analysis
