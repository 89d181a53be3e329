// Unified query observability, part 1: the metrics registry.
//
// The paper's whole empirical story is *oracle-call accounting* — the
// observable correlate of the Table 1/2 complexity placements. Historically
// those counters lived in four ad-hoc structs (MinimalStats,
// analysis::DispatchStats, oracle::SessionStats, Budget consumption) that
// could only be rendered through pairwise FormatStats string overloads. The
// obs layer makes that accounting first-class and machine-readable:
//
//   * MetricsRegistry — named monotonic counters and power-of-two
//     histograms, thread-safe via striped atomics, snapshot-able;
//   * MetricsSnapshot — an ordered, immutable point-in-time view, the unit
//     of JSON export (WriteJson / ToJsonString) consumed by ddquery
//     --metrics, the bench harnesses' BENCH_*.json rows, and the tests;
//   * the legacy structs remain the hot-path increment mechanism and are
//     published into a registry via src/obs/stats_view.h (a one-way
//     export: nothing reads the structs back from a snapshot).
//
// Counter naming scheme (see docs/OBSERVABILITY.md):
//   dd.<layer>.<counter>, e.g. dd.minimal.sat_calls, dd.session.cache_hits,
//   dd.dispatch.generic, dd.budget.conflicts_consumed.
//
// Thread-safety: Counter::Add is a relaxed fetch_add on one of a small
// number of cache-line-padded stripes chosen per thread, so concurrent
// writers (ParallelFor workers) do not contend on one cache line;
// Value()/Snapshot() sum the stripes. Registration takes a mutex once per
// name; hold the returned Counter*/Histogram* (stable for the registry's
// lifetime) on hot paths.
#ifndef DD_OBS_METRICS_H_
#define DD_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dd {
namespace obs {

/// Escapes `s` for inclusion in a JSON string literal (quotes, backslashes
/// and control characters).
std::string JsonEscape(std::string_view s);

/// A monotonic counter striped over cache-line-padded atomics. Writers pick
/// a stripe by thread; readers sum. Add(n) with n >= 0 only.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t n);
  void Increment() { Add(1); }
  int64_t Value() const;

 private:
  static constexpr int kStripes = 8;
  struct alignas(64) Cell {
    std::atomic<int64_t> v{0};
  };
  Cell cells_[kStripes];
};

/// A histogram with power-of-two buckets: bucket i counts values v with
/// 2^(i-1) <= v < 2^i (bucket 0 counts v <= 0 and v == 1 lands in bucket
/// 1). Tracks count and sum exactly; Record is lock-free.
class Histogram {
 public:
  static constexpr int kBuckets = 40;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(int64_t value);
  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t BucketCount(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> buckets_[kBuckets] = {};
};

/// An ordered point-in-time view of a registry (or a hand-built counter
/// set). std::map keys make iteration — and therefore JSON export —
/// deterministic.
struct MetricsSnapshot {
  struct HistogramData {
    int64_t count = 0;
    int64_t sum = 0;
    /// (inclusive upper bound, count) per nonempty bucket, ascending.
    std::vector<std::pair<int64_t, int64_t>> buckets;
  };

  std::map<std::string, int64_t> counters;
  std::map<std::string, HistogramData> histograms;

  /// The value of `name`, or 0 when absent (absent == never incremented).
  int64_t Value(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

/// Registry of named counters and histograms. Get* registers on first use
/// and returns a pointer that stays valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Convenience: GetCounter(name)->Add(n).
  void Add(std::string_view name, int64_t n) { GetCounter(name)->Add(n); }

  MetricsSnapshot Snapshot() const;

  /// The process-wide registry (for long-lived callers like ddquery
  /// --metrics; libraries prefer an explicitly passed registry).
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Serializes a snapshot as one JSON object:
///   {"counters": {"dd.minimal.sat_calls": 12, ...},
///    "histograms": {"dd.query.latency_us":
///        {"count": 3, "sum": 1200, "buckets": [[512, 2], [1024, 1]]}}}
/// Keys are emitted in sorted order (map iteration), so the export is
/// byte-deterministic for a given snapshot.
void WriteJson(std::ostream& out, const MetricsSnapshot& snap);
std::string ToJsonString(const MetricsSnapshot& snap);

}  // namespace obs
}  // namespace dd

#endif  // DD_OBS_METRICS_H_
