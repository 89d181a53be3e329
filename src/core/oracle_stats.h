// Formatting helpers for the oracle-call accounting the bench harnesses
// print: the observable correlate of the paper's complexity placements.
#ifndef DD_CORE_ORACLE_STATS_H_
#define DD_CORE_ORACLE_STATS_H_

#include <string>
#include <vector>

#include "analysis/dispatch.h"
#include "minimal/minimal_models.h"
#include "oracle/sat_session.h"

namespace dd {

/// One measured cell of a reproduced table.
struct MeasuredCell {
  std::string semantics;
  std::string task;
  std::string paper_class;   ///< the complexity class Table 1/2 reports
  double seconds = 0.0;      ///< wall time on the harness workload
  int64_t sat_calls = 0;     ///< NP-oracle invocations
  int64_t instances = 0;     ///< number of instances aggregated
  std::string note;          ///< e.g. "poly fit exp=1.9" or "growth x34"
};

/// Renders "SAT calls=…, minimizations=…, CEGAR=…, models=…".
std::string FormatStats(const MinimalStats& s);

/// Renders the oracle counters together with the analyzer-dispatch
/// downgrade counters ("… | dispatch: generic=…, …") so every engine
/// downgrade is observable next to the oracle work it avoided.
std::string FormatStats(const MinimalStats& s,
                        const analysis::DispatchStats& d);

/// Renders the oracle counters next to the session-reuse counters
/// ("… | session: loads=…, solves=…, ctx=…/…, cache=…/…, replayed=…"),
/// so the semantic oracle work and the fraction served from reuse are
/// observable side by side. All-zero session counters (fresh-solver
/// mode) render as "session: off".
std::string FormatStats(const MinimalStats& s,
                        const oracle::SessionStats& sess);

/// The combined rendering: oracle counters, analyzer-dispatch downgrades,
/// AND session reuse in one line ("… | dispatch: … | session: …"), so
/// session-mode bench output can show engine downgrades next to session
/// reuse.
std::string FormatStats(const MinimalStats& s,
                        const analysis::DispatchStats& d,
                        const oracle::SessionStats& sess);

/// Renders a fixed-width table with a header, one row per cell.
std::string FormatMeasuredTable(const std::string& title,
                                const std::vector<MeasuredCell>& cells);

}  // namespace dd

#endif  // DD_CORE_ORACLE_STATS_H_
