#include "batch/batch_planner.h"

#include <map>
#include <utility>

namespace dd {
namespace batch {

namespace {

/// Groups of MinBankGroup(kind, mode) or more unique queries pay for a
/// new bank; the rest answer directly.
void ChooseEvaluations(SemanticsKind kind, BatchMode mode, bool banks,
                       std::vector<PlannedGroup>* groups) {
  const size_t min_bank = MinBankGroup(kind, mode);
  for (PlannedGroup& g : *groups) {
    g.eval = banks && g.query_indices.size() >= min_bank ? GroupEval::kNewBank
                                                         : GroupEval::kDirect;
  }
}

}  // namespace

std::vector<PlannedGroup> PlanGroups(
    const analysis::Slicer* slicer, const analysis::ProgramProperties& props,
    SemanticsKind kind, BatchMode mode, bool banks, bool custom_partition,
    const std::vector<CanonicalQuery>& queries,
    const std::vector<int>& pending) {
  std::vector<PlannedGroup> groups;
  if (pending.empty()) return groups;

  if (slicer == nullptr ||
      !analysis::SliceIsSound(props, kind, custom_partition)) {
    PlannedGroup g;
    g.query_indices = pending;
    g.whole_db = true;
    groups.push_back(std::move(g));
    ChooseEvaluations(kind, mode, banks, &groups);
    return groups;
  }

  // Key each query by its module-union clause footprint; equal footprints
  // share one engine. std::map keeps lookup deterministic, but emission
  // order is first appearance over `pending`, tracked explicitly.
  std::map<std::vector<int>, int> group_of;  // footprint -> groups index
  for (int qi : pending) {
    analysis::SliceResult slice = slicer->ModuleUnion(queries[qi].roots);
    const bool whole = !slice.proper;
    // All whole-database queries share one footprint regardless of which
    // improper union produced them.
    std::vector<int> footprint =
        whole ? std::vector<int>{-1} : slice.clause_indices;
    auto [it, inserted] =
        group_of.emplace(std::move(footprint), static_cast<int>(groups.size()));
    if (inserted) {
      PlannedGroup g;
      g.whole_db = whole;
      if (!whole) g.slice = std::move(slice);
      groups.push_back(std::move(g));
    } else if (!whole) {
      // Same clauses, possibly other query-only atoms (roots no clause
      // mentions): the group's atom set is the union.
      for (Var v : slice.relevant.TrueAtoms()) {
        groups[it->second].slice.relevant.Insert(v);
      }
    }
    groups[it->second].query_indices.push_back(qi);
  }
  ChooseEvaluations(kind, mode, banks, &groups);
  return groups;
}

}  // namespace batch
}  // namespace dd
