// The one fingerprint-epoch-pinned, string-keyed LRU behind the batch
// layer's two cross-batch structures: batch::AnswerCache (definite
// answers) and batch::ModelBankStore (complete intended-model banks).
// Those classes add only what differs between them — key formats, the
// admission rule, and the store's width floor on lookup.
//
// Contract:
//   * SetEpoch pins the LRU to a database fingerprint; any change drops
//     every entry wholesale before a single lookup (one invalidation).
//   * Lookup refreshes the entry's LRU slot on a hit. An entry that the
//     caller's `usable` test refuses counts as a miss, stays stored, and
//     keeps its slot.
//   * Insert stores an admitted value at the front, refreshing an existing
//     key in place, and evicts from the back past `capacity` (<= 0 means
//     unbounded). A refused value is counted and never stored.
//
// Every call reports what it did (SetEpoch's bool, Lookup's result,
// Insert's Inserted), so a caller sharing the LRU with others counts its
// own traffic as it makes each call; stats() holds the lifetime totals.
//
// Not thread-safe: callers serialize access (the Reasoner touches it only
// on the batch caller's thread).
#ifndef DD_BATCH_EPOCH_LRU_H_
#define DD_BATCH_EPOCH_LRU_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

namespace dd {
namespace batch {

template <typename V>
class EpochLru {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;         ///< absent keys + entries `usable` refused
    int64_t insertions = 0;     ///< new keys stored
    int64_t evictions = 0;      ///< LRU entries dropped at capacity
    int64_t invalidations = 0;  ///< full clears on fingerprint change
    int64_t rejected = 0;       ///< Insert attempts the admission rule refused
  };

  /// What one Insert did.
  struct Inserted {
    bool added = false;     ///< a new key was stored
    bool rejected = false;  ///< the admission rule refused the value
    int64_t evictions = 0;  ///< entries dropped to make room
  };

  explicit EpochLru(int64_t capacity) : capacity_(capacity) {}

  /// Pins the LRU to `fingerprint`, dropping every entry stored under a
  /// different one. True when that drop counted as an invalidation.
  bool SetEpoch(uint64_t fingerprint) {
    if (epoch_set_ && epoch_ == fingerprint) return false;
    const bool invalidated = epoch_set_ && !entries_.empty();
    if (invalidated) ++stats_.invalidations;
    Clear();
    epoch_ = fingerprint;
    epoch_set_ = true;
    return invalidated;
  }

  void Clear() {
    lru_.clear();
    entries_.clear();
  }

  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  const Stats& stats() const { return stats_; }

  /// The fingerprint the LRU is currently pinned to (via SetEpoch).
  uint64_t epoch() const { return epoch_; }

  /// Visits live entries as fn(key, value), most recently used first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [key, value] : lru_) fn(key, value);
  }

 protected:
  /// The value for `key` when present and `usable(value)`, else null.
  template <typename Usable>
  const V* Find(const std::string& key, Usable&& usable) {
    auto it = entries_.find(key);
    if (it == entries_.end() || !usable(it->second->second)) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->second;
  }

  /// Stores `value` under `key` when `admitted`, else counts a refusal.
  Inserted Put(const std::string& key, V value, bool admitted) {
    Inserted out;
    if (!admitted) {
      ++stats_.rejected;
      out.rejected = true;
      return out;
    }
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second->second = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return out;
    }
    lru_.emplace_front(key, std::move(value));
    entries_.emplace(key, lru_.begin());
    ++stats_.insertions;
    out.added = true;
    while (capacity_ > 0 && size() > capacity_) {
      entries_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
      ++out.evictions;
    }
    return out;
  }

 private:
  using LruList = std::list<std::pair<std::string, V>>;

  int64_t capacity_;
  bool epoch_set_ = false;
  uint64_t epoch_ = 0;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<std::string, typename LruList::iterator> entries_;
  Stats stats_;
};

}  // namespace batch
}  // namespace dd

#endif  // DD_BATCH_EPOCH_LRU_H_
