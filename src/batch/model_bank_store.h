// Bounded, epoch-aware store of complete model banks, shared across
// batches.
//
// A batch group's model bank — one enumeration of the group's
// intended-model set — is the expensive shared structure of
// docs/BATCHING.md stage 5. Before this store, every AnswerBatch call
// rebuilt each group's bank from scratch, so repeated *non-identical*
// batches (same modules, disjoint queries) re-paid the paper's NP/Σ₂ᵖ
// enumeration price per call even though the answer cache deduplicated
// repeated *queries*. The store closes that gap: a bank built by one
// batch is keyed on
//
//   (module fingerprint, atom order, semantics kind, effective cap)
//
// and reused by any later group with the same key — across batches,
// across skeptical and brave modes (the bank is the model set; the modes
// differ only in the for-all vs exists pass over it), and across ladder
// rungs of the serving layer (a retried request never rebuilds a bank an
// earlier rung already completed).
//
// Banks are bitsets over a numbering, and the module fingerprint hashes
// names, not Vars: two databases with equal fingerprints may number their
// atoms differently. The atom order (util/fingerprint.h
// AtomOrderFingerprint) pins the numbering a bank was built over — for a
// module bank, the names of the module's clause-mentioned atoms in
// ascending Var order, which is the compact numbering its models use; for
// a whole-database bank, the names of the vocabulary prefix its clauses
// mention. A bank is only ever read through the numbering it was built
// over.
//
// Safety contract:
//   * Only COMPLETE banks are ever stored. A bank truncated by a model
//     cap or budget exhaustion answers nothing; Insert refuses banks not
//     marked complete (stats().rejected), and the batch layer
//     only marks a bank complete when the enumeration provably returned
//     the whole set (it asks for cap+1 models and got at most cap).
//   * SetEpoch pins the store to the database fingerprint through the
//     same LRU as batch::AnswerCache (batch/epoch_lru.h): any
//     fingerprint change drops every bank
//     wholesale before a single lookup. Module fingerprints of a mutated
//     database can never serve stale models.
//   * A lookup demands a minimum interpretation width: a bank built
//     before the vocabulary grew cannot evaluate a query mentioning a
//     newer atom, so such lookups miss (the bank stays stored, in its old
//     LRU slot, for queries over the old atoms).
//   * Custom CCWA/ECWA partitions change the intended-model set without
//     changing the database fingerprint; the batch layer disables the
//     store entirely for partitioned reasoners.
//
// Memory: banks are handed around as shared_ptr handles — the in-flight
// evaluation, the store, and (for EGCWA) the oracle layer's exhausted
// ProjectionStore stream all reference ONE materialization
// (Semantics::SharedModels); eviction or epoch invalidation drops the
// store's reference without copying or invalidating readers. LRU-bounded
// like AnswerCache; evictions only ever cost re-enumeration.
//
// Not thread-safe: the Reasoner performs all lookups/inserts on the
// batch caller's thread — lookups before the parallel group evaluation,
// inserts after it joins.
#ifndef DD_BATCH_MODEL_BANK_STORE_H_
#define DD_BATCH_MODEL_BANK_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "batch/epoch_lru.h"
#include "logic/interpretation.h"
#include "semantics/semantics.h"

namespace dd {
namespace batch {

/// One group's enumerated intended-model set, shared by handle.
struct ModelBank {
  /// The models (never null; possibly empty — a semantics-inconsistent
  /// module has a complete empty bank). May alias engine-internal storage
  /// (an exhausted projection stream), which stays immutable once shared.
  std::shared_ptr<const std::vector<Interpretation>> models;
  /// Interpretation width: a formula may be evaluated against this bank
  /// iff every atom it mentions has Var < num_vars. INT_MAX for an empty
  /// bank (no Eval ever touches a bit).
  int num_vars = 0;
  /// True when `models` provably holds the WHOLE intended-model set.
  /// Banks without this flag answer nothing and are never stored.
  bool complete = false;
};

class ModelBankStore : public EpochLru<std::shared_ptr<const ModelBank>> {
 public:
  /// `capacity` <= 0 means unbounded (tests only; servers should bound).
  /// Banks are heavyweight (whole model sets), so the default is far
  /// smaller than AnswerCache's.
  explicit ModelBankStore(int64_t capacity = 32) : EpochLru(capacity) {}

  /// The canonical composite key. `atom_order` pins the numbering the
  /// bank's models use (see above); `cap` is the effective bank cap the
  /// enumeration ran under (EffectiveBankCap): two batches share a bank
  /// only when they would have built the same one.
  static std::string MakeKey(uint64_t module_fingerprint, uint64_t atom_order,
                             SemanticsKind kind, int64_t cap);

  /// The stored bank for `key`, if present AND wide enough to evaluate
  /// formulas over vars [0, min_num_vars). Refreshes LRU order on hit;
  /// a width mismatch counts as a miss.
  std::shared_ptr<const ModelBank> Lookup(const std::string& key,
                                          int min_num_vars);

  /// Stores a complete bank; banks not marked complete are refused and
  /// counted (truncated banks must never be stored). Re-inserting an
  /// existing key refreshes its LRU slot.
  Inserted Insert(const std::string& key,
                  std::shared_ptr<const ModelBank> bank);
};

/// `bank` renumbered from the numbering the ascending parent-Var list
/// `from` defines into that of `to`. Every atom true in some model must
/// be in `to`: a compact module bank built with query-only atoms (always
/// false) renumbers onto the module's own atoms this way before storing.
std::shared_ptr<const ModelBank> RenumberBank(const ModelBank& bank,
                                              const std::vector<Var>& from,
                                              const std::vector<Var>& to);

}  // namespace batch
}  // namespace dd

#endif  // DD_BATCH_MODEL_BANK_STORE_H_
