#include "analysis/diagnostics.h"

#include "observability/bench/json.h"
#include "observability/metrics.h"

#include <algorithm>
#include <sstream>

namespace hydride {
namespace analysis {

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

namespace {

int
severityRank(Severity severity)
{
    return -static_cast<int>(severity); // Error sorts first.
}

} // namespace

std::string
Diagnostic::str() const
{
    std::ostringstream os;
    os << severityName(severity) << "[" << rule << "]";
    if (!isa.empty() || !instruction.empty()) {
        os << " " << isa;
        if (!isa.empty() && !instruction.empty())
            os << ":";
        os << instruction;
    }
    if (loc.known())
        os << " (" << loc.str() << ")";
    os << ": " << message;
    return os.str();
}

void
DiagnosticReport::setWaivers(std::vector<Waiver> waivers)
{
    waivers_ = std::move(waivers);
}

bool
DiagnosticReport::waived(const Diagnostic &diag) const
{
    for (const auto &waiver : waivers_) {
        if (waiver.rule == diag.rule &&
            (waiver.instruction_substr.empty() ||
             diag.instruction.find(waiver.instruction_substr) !=
                 std::string::npos)) {
            return true;
        }
    }
    return false;
}

void
DiagnosticReport::add(Diagnostic diag)
{
    if (waived(diag)) {
        ++suppressed_;
        metrics::counter("analysis.verify.suppressed").add();
        return;
    }
    switch (diag.severity) {
      case Severity::Error:
        ++errors_;
        metrics::counter("analysis.verify.errors").add();
        break;
      case Severity::Warning:
        ++warnings_;
        metrics::counter("analysis.verify.warnings").add();
        break;
      case Severity::Note:
        ++notes_;
        metrics::counter("analysis.verify.notes").add();
        break;
    }
    metrics::counter("analysis.pass." + diag.pass + ".findings").add();
    diags_.push_back(std::move(diag));
}

void
DiagnosticReport::sortBySeverity()
{
    std::stable_sort(diags_.begin(), diags_.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         if (a.severity != b.severity)
                             return severityRank(a.severity) <
                                    severityRank(b.severity);
                         if (a.isa != b.isa)
                             return a.isa < b.isa;
                         if (a.instruction != b.instruction)
                             return a.instruction < b.instruction;
                         return a.rule < b.rule;
                     });
}

std::string
DiagnosticReport::renderText(size_t max_diags) const
{
    std::ostringstream os;
    size_t shown = 0;
    for (const auto &diag : diags_) {
        if (max_diags && shown == max_diags) {
            os << "... " << (diags_.size() - shown)
               << " further findings elided\n";
            break;
        }
        os << diag.str() << "\n";
        ++shown;
    }
    os << errors_ << " error(s), " << warnings_ << " warning(s), " << notes_
       << " note(s)";
    if (suppressed_)
        os << ", " << suppressed_ << " waived";
    os << "\n";
    return os.str();
}

std::string
DiagnosticReport::renderJson() const
{
    std::ostringstream os;
    os << "{\"diagnostics\":[";
    for (size_t i = 0; i < diags_.size(); ++i) {
        const Diagnostic &d = diags_[i];
        if (i)
            os << ",";
        os << "{\"severity\":\"" << severityName(d.severity) << "\""
           << ",\"rule\":\"" << bjson::escape(d.rule) << "\""
           << ",\"pass\":\"" << bjson::escape(d.pass) << "\""
           << ",\"isa\":\"" << bjson::escape(d.isa) << "\""
           << ",\"instruction\":\"" << bjson::escape(d.instruction) << "\""
           << ",\"loc\":\"" << bjson::escape(d.loc.str()) << "\""
           << ",\"message\":\"" << bjson::escape(d.message) << "\"}";
    }
    os << "],\"summary\":{\"errors\":" << errors_ << ",\"warnings\":"
       << warnings_ << ",\"notes\":" << notes_ << ",\"suppressed\":"
       << suppressed_ << "}";
    for (const auto &[key, raw_json] : extras_)
        os << ",\"" << bjson::escape(key) << "\":" << raw_json;
    os << "}";
    return os.str();
}

void
DiagnosticReport::setExtra(const std::string &key, std::string raw_json)
{
    for (auto &[existing, value] : extras_) {
        if (existing == key) {
            value = std::move(raw_json);
            return;
        }
    }
    extras_.emplace_back(key, std::move(raw_json));
}

} // namespace analysis
} // namespace hydride
