// Unified query observability, part 3: absorbing the legacy stats structs.
//
// The four ad-hoc counter structs that predate src/obs/ — MinimalStats,
// analysis::DispatchStats, oracle::SessionStats and Budget consumption —
// remain the hot-path increment mechanism (a plain int64 bump inside an
// engine beats a registry lookup), but the registry is now the canonical
// aggregation point:
//
//   Publish(stats, &registry)   — folds a struct into the registry under
//                                 the canonical dd.<layer>.<counter> names.
//                                 Counters are monotonic: publish a struct
//                                 once (or publish deltas), never the same
//                                 cumulative value twice.
//
// Coverage contract (pinned by tests/obs_test.cc): Publish(s) writes every
// field of s under its documented dd.* name.
#ifndef DD_OBS_STATS_VIEW_H_
#define DD_OBS_STATS_VIEW_H_

#include "analysis/dispatch.h"
#include "minimal/minimal_models.h"
#include "obs/metrics.h"
#include "oracle/sat_session.h"
#include "qbf/qbf_solver.h"
#include "util/budget.h"

namespace dd {
namespace obs {

/// Each folds one struct in under its canonical dd.* names
/// (docs/OBSERVABILITY.md documents the scheme).
void Publish(const MinimalStats& s, MetricsRegistry* reg);
void Publish(const analysis::DispatchStats& d, MetricsRegistry* reg);
void Publish(const oracle::SessionStats& s, MetricsRegistry* reg);
void Publish(const QbfStats& q, MetricsRegistry* reg);
/// Publishes consumption (dd.budget.conflicts_consumed /
/// oracle_calls_consumed) and, when exhausted, one increment of
/// dd.budget.exhausted.<reason>.
void Publish(const Budget& b, MetricsRegistry* reg);

}  // namespace obs
}  // namespace dd

#endif  // DD_OBS_STATS_VIEW_H_
