#include "core/oracle_stats.h"

#include "util/string_util.h"

namespace dd {

namespace {

/// " | session: …" suffix shared by the two session-carrying overloads.
/// All-zero counters (fresh-solver mode) render as "session: off".
std::string SessionSuffix(const oracle::SessionStats& sess) {
  if (sess.base_loads == 0 && sess.solves == 0 && sess.cache_hits == 0 &&
      sess.projections_replayed == 0) {
    return " | session: off";
  }
  std::string out =
      StrFormat(" | session: loads=%lld, solves=%lld, ctx=%lld/%lld, "
                "cache=%lld/%lld, replayed=%lld",
                static_cast<long long>(sess.base_loads),
                static_cast<long long>(sess.solves),
                static_cast<long long>(sess.contexts_opened),
                static_cast<long long>(sess.contexts_retired),
                static_cast<long long>(sess.cache_hits),
                static_cast<long long>(sess.cache_misses),
                static_cast<long long>(sess.projections_replayed));
  // Appended only when the bounded memos actually evicted, so renderings of
  // cap-free runs stay byte-identical.
  if (sess.cache_evictions != 0) {
    out += StrFormat(", evicted=%lld",
                     static_cast<long long>(sess.cache_evictions));
  }
  return out;
}

}  // namespace

std::string FormatStats(const MinimalStats& s) {
  std::string out = StrFormat(
      "SAT calls=%lld, minimizations=%lld, CEGAR=%lld, models=%lld",
      static_cast<long long>(s.sat_calls),
      static_cast<long long>(s.minimizations),
      static_cast<long long>(s.cegar_iterations),
      static_cast<long long>(s.models_enumerated));
  // Appended only when the polynomial HCF path actually ran, so the
  // long-standing renderings of oracle-only runs stay byte-identical.
  if (s.hcf_checks != 0) {
    out += StrFormat(", hcf checks=%lld", static_cast<long long>(s.hcf_checks));
  }
  return out;
}

std::string FormatStats(const MinimalStats& s,
                        const analysis::DispatchStats& d) {
  return FormatStats(s) + " | " + d.ToString();
}

std::string FormatStats(const MinimalStats& s,
                        const oracle::SessionStats& sess) {
  return FormatStats(s) + SessionSuffix(sess);
}

std::string FormatStats(const MinimalStats& s,
                        const analysis::DispatchStats& d,
                        const oracle::SessionStats& sess) {
  return FormatStats(s, d) + SessionSuffix(sess);
}

std::string FormatMeasuredTable(const std::string& title,
                                const std::vector<MeasuredCell>& cells) {
  std::string out;
  out += title + "\n";
  out += StrFormat("%-10s %-22s %-34s %12s %12s %8s  %s\n", "Semantics",
                   "Task", "Paper class", "time[s]", "SAT calls", "inst",
                   "measured");
  out += std::string(118, '-') + "\n";
  for (const auto& c : cells) {
    out += StrFormat("%-10s %-22s %-34s %12.4f %12lld %8lld  %s\n",
                     c.semantics.c_str(), c.task.c_str(),
                     c.paper_class.c_str(), c.seconds,
                     static_cast<long long>(c.sat_calls),
                     static_cast<long long>(c.instances), c.note.c_str());
  }
  return out;
}

}  // namespace dd
