#include "analysis/diagnostic.h"

#include "common/logging.h"

namespace camj::analysis
{

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Error: return "error";
      case Severity::Warning: return "warning";
      case Severity::Info: return "info";
    }
    return "?";
}

std::string
Diagnostic::format() const
{
    std::string out = severityName(severity);
    out += " ";
    out += code;
    if (!path.empty()) {
        out += " at ";
        out += path;
    }
    out += ": ";
    out += message;
    if (!hint.empty()) {
        out += " (hint: ";
        out += hint;
        out += ")";
    }
    return out;
}

namespace
{

Diagnostic
make(Severity severity, std::string code, std::string path,
     std::string message, std::string hint)
{
    Diagnostic d;
    d.code = std::move(code);
    d.severity = severity;
    d.path = std::move(path);
    d.message = std::move(message);
    d.hint = std::move(hint);
    return d;
}

} // namespace

Diagnostic
makeError(std::string code, std::string path, std::string message,
          std::string hint)
{
    return make(Severity::Error, std::move(code), std::move(path),
                std::move(message), std::move(hint));
}

Diagnostic
makeError(const ConfigError &e, std::string path)
{
    return make(Severity::Error, ruleCodeName(e.code()), std::move(path),
                e.what(), "");
}

Diagnostic
makeWarning(std::string code, std::string path, std::string message,
            std::string hint)
{
    return make(Severity::Warning, std::move(code), std::move(path),
                std::move(message), std::move(hint));
}

Diagnostic
makeInfo(std::string code, std::string path, std::string message,
         std::string hint)
{
    return make(Severity::Info, std::move(code), std::move(path),
                std::move(message), std::move(hint));
}

bool
hasErrors(const std::vector<Diagnostic> &diags)
{
    for (const Diagnostic &d : diags) {
        if (d.severity == Severity::Error)
            return true;
    }
    return false;
}

size_t
countSeverity(const std::vector<Diagnostic> &diags, Severity severity)
{
    size_t n = 0;
    for (const Diagnostic &d : diags) {
        if (d.severity == severity)
            ++n;
    }
    return n;
}

std::string
formatDiagnostics(const std::vector<Diagnostic> &diags,
                  const std::string &subject)
{
    std::string out;
    for (const Diagnostic &d : diags) {
        if (!subject.empty()) {
            out += subject;
            out += ": ";
        }
        out += d.format();
        out += "\n";
    }
    return out;
}

} // namespace camj::analysis
