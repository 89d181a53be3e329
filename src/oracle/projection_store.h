// Memoized minimal-projection streams: blocking-clause reuse across
// successive enumeration calls.
//
// EnumerateMinimalProjections is the workhorse inside the Σ₂ᵖ oracle of
// the paper's counting algorithm (Section 3.1): the binary search calls it
// O(log n) times over the SAME database and partition, each time from
// scratch in the fresh-solver regime. A ProjectionStream instead records
// the projections in their discovery order together with the session
// context holding their region-blocking clauses; later calls replay the
// memoized prefix with zero SAT calls and, only if the consumer wants
// more, resume the persistent context exactly where the last call stopped.
//
// The stream order is well-defined because enumeration is deterministic:
// the k-th projection is a function of the database, the partition, and
// the k-1 blocks already asserted — independent of which oracle call
// happened to discover it.
//
// Capacity: SetCapacity bounds the number of live streams (each one pins
// its projections plus a kept session context for the life of the store —
// unbounded growth is a leak under long-lived batch servers that sweep
// many partitions). Eviction is LRU by GetStream access. Dropping a stream
// is sound: eviction retracts its kept context by the unit ¬act alone, which
// satisfies its region blocks for good without touching the variables of
// streams still live, and a later GetStream simply re-enumerates from
// scratch — deterministically the same stream. Evictions are counted
// (dd.oracle.cache_evictions).
#ifndef DD_ORACLE_PROJECTION_STORE_H_
#define DD_ORACLE_PROJECTION_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "logic/interpretation.h"
#include "minimal/pqz.h"
#include "oracle/sat_session.h"

namespace dd {
namespace oracle {

/// One partition's memoized enumeration state.
struct ProjectionStream {
  Partition pqz;
  /// Minimal projections in discovery order (each is a full model; its
  /// (P,Q)-projection is the canonical datum). Held behind a shared
  /// handle so an EXHAUSTED stream's storage can be aliased outward
  /// (Semantics::SharedModels → the batch layer's model banks) without a
  /// copy: once exhausted the vector is never mutated again, and eviction
  /// only drops this stream's reference while outstanding handles keep
  /// the models alive. Never null.
  std::shared_ptr<std::vector<Interpretation>> projections =
      std::make_shared<std::vector<Interpretation>>();
  /// True once the region blocks cover the whole model space.
  bool exhausted = false;
  /// Persistent context guarding the region-blocking clauses; kept alive
  /// for the life of the stream so resumption is incremental.
  std::unique_ptr<SatSession::Context> ctx;
  /// Last GetStream access (LRU eviction order).
  int64_t last_used = 0;
};

/// Per-engine registry of streams, one per partition (full bitset
/// equality, never hashed).
class ProjectionStore {
 public:
  /// Finds or creates the stream for `pqz`. The returned pointer is valid
  /// until the next GetStream call (which may evict) or Clear.
  ProjectionStream* GetStream(const Partition& pqz);

  /// Finds the stream for `pqz` without creating one (and without
  /// touching LRU order): nullptr when absent. Read-only probes — e.g.
  /// handing out an exhausted stream's shared projections — must not
  /// trigger eviction of an unrelated live stream.
  ProjectionStream* FindStream(const Partition& pqz);

  /// Bounds the number of live streams; <= 0 means unbounded.
  void SetCapacity(int64_t cap) { cap_ = cap; }
  int64_t capacity() const { return cap_; }
  int64_t size() const { return static_cast<int64_t>(streams_.size()); }
  int64_t evictions() const { return evictions_; }

  void Clear() { streams_.clear(); }

 private:
  std::vector<std::unique_ptr<ProjectionStream>> streams_;
  int64_t cap_ = 0;
  int64_t tick_ = 0;
  int64_t evictions_ = 0;
};

}  // namespace oracle
}  // namespace dd

#endif  // DD_ORACLE_PROJECTION_STORE_H_
