// Unified query observability, part 2: per-query trace spans.
//
// A TraceContext records one span per *layer crossing* of a query:
//
//   Reasoner ("reasoner")  — one `query` span per entry point, carrying the
//     dispatch decision, the oracle-call totals the query consumed (the
//     engine reports the query folded), and budget-consumption attribution;
//   semantics engine ("semantics") — the generic engine invocation;
//   MinimalEngine / uminsat / QBF-CEGAR ("minimal" / "qbf") — one span per
//     top-level oracle-backed operation (MinimalEntails, FreeAtoms,
//     enumeration, the CEGAR loop);
//   SatSession ("oracle") and sat::Solver ("sat") — aggregate reuse and
//     conflict accounting for the operation above them (one accumulating
//     span per operation, NOT one per solver call — a query makes
//     thousands of those).
//
// Spans carry monotonic counter attributions (oracle_calls, conflicts,
// cache_hits, dispatch downgrades, budget consumption) and string
// attributes (semantics, task, dispatch path, status). The exactness
// contract pinned by tests/obs_test.cc: summing `oracle_calls` over
// "reasoner"-layer spans reproduces Reasoner::TotalStats().
//
// Parenting is inferred from a per-thread stack of open spans, so layers
// need no plumbing beyond opening/closing their own span; spans opened on
// a worker thread with no open parent become roots. All mutation is
// mutex-guarded — spans are per layer crossing, not per solver call, so
// the lock is far off any hot path.
#ifndef DD_OBS_TRACE_H_
#define DD_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dd {
namespace obs {

/// One node of the span tree. POD-ish; returned by TraceContext::Snapshot.
struct Span {
  int id = 0;
  int parent = -1;  ///< span id, or -1 for a root
  std::string name;
  std::string layer;  ///< serve|reasoner|semantics|minimal|qbf|oracle|sat|cli
  int64_t start_us = 0;  ///< microseconds since the context's epoch
  int64_t end_us = -1;   ///< -1 while open
  /// Counter attributions, insertion-ordered (AddCounter accumulates on an
  /// existing key).
  std::vector<std::pair<std::string, int64_t>> counters;
  /// String attributes, insertion-ordered (SetAttr overwrites).
  std::vector<std::pair<std::string, std::string>> attrs;

  int64_t Counter(std::string_view key) const {
    for (const auto& [k, v] : counters) {
      if (k == key) return v;
    }
    return 0;
  }
  const std::string* Attr(std::string_view key) const {
    for (const auto& [k, v] : attrs) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// The span tree of one query (or one CLI/bench session). Create one per
/// top-level unit of work, share the pointer down the layers (it rides on
/// QueryOptions / SemanticsOptions / MinimalOptions next to the Budget),
/// and export with WriteJson once the work is done.
class TraceContext {
 public:
  TraceContext();
  ~TraceContext();
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// Opens a span whose parent is the innermost span this thread currently
  /// has open in this context (or none). Returns the span id.
  int OpenSpan(std::string name, std::string layer);

  /// Closes `id` (records end time, pops it from this thread's open
  /// stack). Closing an already-closed span is a no-op.
  void CloseSpan(int id);

  /// Adds `delta` to counter `key` of span `id` (creates it at 0 first).
  void AddCounter(int id, std::string_view key, int64_t delta);

  /// Sets attribute `key` of span `id`.
  void SetAttr(int id, std::string_view key, std::string value);

  /// A copy of all spans recorded so far (open spans have end_us == -1).
  std::vector<Span> Snapshot() const;

  size_t span_count() const;

  /// Sums counter `key` over all spans, or over spans of `layer` only.
  int64_t SumCounter(std::string_view key,
                     std::string_view layer = {}) const;

  /// Serializes the span tree:
  ///   {"trace_schema": 1, "spans": [{"id":0,"parent":-1,"name":"query",
  ///     "layer":"reasoner","start_us":0,"end_us":42,
  ///     "counters":{"oracle_calls":5}, "attrs":{"semantics":"GCWA"}}]}
  void WriteJson(std::ostream& out) const;
  std::string ToJsonString() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span: no-op when `trace` is null, so call sites stay branch-free.
class ScopedSpan {
 public:
  ScopedSpan(TraceContext* trace, std::string name, std::string layer)
      : trace_(trace) {
    if (trace_ != nullptr) {
      id_ = trace_->OpenSpan(std::move(name), std::move(layer));
    }
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->CloseSpan(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Counter(std::string_view key, int64_t delta) {
    if (trace_ != nullptr) trace_->AddCounter(id_, key, delta);
  }
  void Attr(std::string_view key, std::string value) {
    if (trace_ != nullptr) trace_->SetAttr(id_, key, std::move(value));
  }

  explicit operator bool() const { return trace_ != nullptr; }
  int id() const { return id_; }
  TraceContext* context() const { return trace_; }

 private:
  TraceContext* trace_;
  int id_ = -1;
};

}  // namespace obs
}  // namespace dd

#endif  // DD_OBS_TRACE_H_
