// Grouping a batch's canonical queries into evaluation units.
//
// Queries touching the same relevance modules share one engine (and one
// model bank): the planner keys each query on the module union of its
// atoms (analysis/slicer.h) and merges queries with identical clause
// footprints. Slicing soundness is the single-query gate reused verbatim —
// SliceIsSound(props, kind, custom_partition) — so semantics where module
// restriction could change answers (CWA, PDSM, custom CCWA/ECWA
// partitions) collapse into one whole-database group.
//
// Each group also gets its evaluation (GroupEval): a new bank when the
// mode's bank gate allows banks (BankIsSound / BraveBankIsSound, and a
// positive cap) and the group has at least MinBankGroup(kind, mode)
// unique queries, direct per-query calls otherwise. The Reasoner's store
// probe then upgrades any bank-gated group whose bank is already stored
// to kStoredBank, whatever its size.
//
// Determinism: groups are emitted in first-appearance order of their
// footprint over the query list, and query_indices ascend within each
// group; the plan is a pure function of (database, semantics, queries),
// independent of thread count.
#ifndef DD_BATCH_BATCH_PLANNER_H_
#define DD_BATCH_BATCH_PLANNER_H_

#include <vector>

#include "analysis/dispatch.h"
#include "analysis/program_properties.h"
#include "analysis/slicer.h"
#include "batch/query_batch.h"
#include "semantics/semantics.h"

namespace dd {
namespace batch {

/// One planned group: member queries (indices into the caller's canonical
/// query vector) plus the database restriction they run on.
struct PlannedGroup {
  std::vector<int> query_indices;
  /// Meaningful when !whole_db: the members' shared clause footprint,
  /// with `relevant` the union of their module atoms and query-only atoms.
  analysis::SliceResult slice;
  bool whole_db = false;        ///< evaluate on the full database
  GroupEval eval = GroupEval::kDirect;
};

/// Partitions `pending` (indices into `queries`) into evaluation groups.
/// With a null slicer or an unsound slice gate everything lands in one
/// whole-database group; an improper module union (the query reaches the
/// whole program) likewise maps to whole_db so the engine skips the
/// sub-database copy. `banks` says whether this batch may build banks at
/// all (the mode's bank gate and a positive model_bank_cap).
std::vector<PlannedGroup> PlanGroups(
    const analysis::Slicer* slicer, const analysis::ProgramProperties& props,
    SemanticsKind kind, BatchMode mode, bool banks, bool custom_partition,
    const std::vector<CanonicalQuery>& queries,
    const std::vector<int>& pending);

}  // namespace batch
}  // namespace dd

#endif  // DD_BATCH_BATCH_PLANNER_H_
