// Fingerprinted LRU cache of definite batch answers.
//
// Key contract (docs/BATCHING.md): an entry is addressed by
//
//   (database fingerprint, semantics, canonical query key)
//
// rendered as one string via MakeKey. The fingerprint (util/fingerprint.h)
// is a stable hash of the canonicalized clause multiset, so two loads of
// the same program — in any clause order — share entries, and any clause
// change flips the fingerprint. SetEpoch enforces invalidation: the cache
// remembers the fingerprint it was last used with and drops everything
// when a different one shows up (batch/epoch_lru.h).
//
// "Unknown is never cached": Insert refuses Trilean::kUnknown (counted in
// stats().rejected). A kUnknown answer means the budget ran out — it says
// nothing about the query, and caching it would freeze a transient
// resource condition into a persistent wrong "answer". Definite answers
// computed under a budget are safe to cache: the anytime contract
// guarantees they equal the unbudgeted answer (docs/ROBUSTNESS.md).
//
// Not thread-safe: the Reasoner performs all lookups/inserts on the batch
// caller's thread, outside the parallel group evaluation.
#ifndef DD_BATCH_ANSWER_CACHE_H_
#define DD_BATCH_ANSWER_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "batch/epoch_lru.h"
#include "semantics/semantics.h"
#include "util/budget.h"

namespace dd {
namespace batch {

class AnswerCache : public EpochLru<Trilean> {
 public:
  /// `capacity` <= 0 means unbounded (tests only; servers should bound).
  explicit AnswerCache(int64_t capacity = 4096) : EpochLru(capacity) {}

  /// The canonical composite key. `brave` tags credulous-mode entries in
  /// the kind segment ("KIND~brave"), so brave and skeptical answers for
  /// the same canonical query never collide while skeptical keys stay
  /// byte-identical to the pre-brave format (existing snapshots load
  /// unchanged).
  static std::string MakeKey(uint64_t fingerprint, SemanticsKind kind,
                             const std::string& canonical_query,
                             bool brave = false);

  /// True for keys minted by MakeKey(..., brave=true). Snapshot
  /// persistence filters these out: snapshots stay skeptical-only
  /// (docs/SERVING.md).
  static bool IsBraveKey(const std::string& key);

  /// Definite cached answer for `key`, if present (refreshes LRU order).
  std::optional<Trilean> Lookup(const std::string& key);

  /// Caches a definite answer; kUnknown is refused, never stored.
  Inserted Insert(const std::string& key, Trilean answer);
};

}  // namespace batch
}  // namespace dd

#endif  // DD_BATCH_ANSWER_CACHE_H_
