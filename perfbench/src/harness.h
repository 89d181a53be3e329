// Shared harness of the repository benchmark: the workload interface, the
// timed loops, percentile helpers, span self-time analysis and the result
// line. Every workload drives the library only through its public API.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/reasoner.h"
#include "obs/trace.h"

namespace perfbench {

namespace obs = dd::obs;

/// Seconds on the steady clock since an arbitrary origin.
double NowSeconds();

/// Command line of one benchmark run (see run.py).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";  ///< where the traced run writes its spans
};

enum class OpKind { kRead, kWrite };

/// Outcome of one request, as the client saw it.
struct Op {
  OpKind kind = OpKind::kRead;
  bool ok = true;  ///< answered definitely (no unknown/ERR/UNAVAILABLE)
};

/// Named metrics in insertion order; `count` marks values that must repeat
/// exactly for a fixed seed (the determinism checks compare them).
class Metrics {
 public:
  struct Item {
    std::string name;
    double value = 0;
    std::string unit;
    bool count = false;
  };
  void Set(std::string_view name, double value, std::string_view unit,
           bool count = false);
  const Item* Find(std::string_view name) const;
  const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
};

/// One workload: a seeded request stream against one program state.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Drops the program state, so that the next Setup starts from nothing
  /// and tearing the old state down is not timed as set-up.
  virtual void Reset() = 0;
  /// Builds fresh program state from the generated input text. This is
  /// the work reported as setup_s.
  virtual void Setup(obs::TraceContext* trace) = 0;
  /// Runs request `i` of the seeded stream against the current state.
  virtual Op Step(int64_t i, obs::TraceContext* trace) = 0;
  /// Period of the request stream: request i and request i + PassRequests()
  /// are the same request, sent to the same program state (a pass ends
  /// with the state back where it started). End-to-end metrics use each
  /// position's fastest time over the passes; a traced segment is one pass
  /// from a fresh Setup, so its counts repeat exactly for a fixed seed.
  virtual int64_t PassRequests() const = 0;
  /// Re-checks every distinct answer recorded so far against reference
  /// entry points; returns how many requests carried a wrong answer.
  virtual int64_t Audit() = 0;
  /// Per-layer metrics of the segment since the last Reset: counts from
  /// the public stats accessors plus timings from the segment's spans.
  virtual void LayerMetrics(const std::vector<obs::Span>& spans,
                            Metrics* out) = 0;
};

std::unique_ptr<Workload> MakeServeZipf(uint64_t seed);
std::unique_ptr<Workload> MakeTemplateRw(uint64_t seed);

/// Runs one benchmark invocation and prints the result line. Returns the
/// process exit code (2 for an unknown workload name).
int RunBenchmark(const Args& args);

// ---- helpers shared by the workloads -----------------------------------

/// Conflict budget that traced segments give AnswerBatch: never reached,
/// but with a budget attached the program's reasoner spans carry
/// conflicts_consumed (the solver's conflict count has no other public
/// route out).
constexpr int64_t kUnreachableConflicts = int64_t{1} << 60;

/// Linear-interpolated quantile, q in [0,1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);

/// Durations (ms) of closed spans named `name`, optionally restricted to
/// spans whose attribute `attr` equals `value`.
std::vector<double> SpanDurationsMs(const std::vector<obs::Span>& spans,
                                    std::string_view name,
                                    std::string_view attr = {},
                                    std::string_view value = {});

/// Self time (ms) of every span: duration minus the time its children
/// cover, indexed by span id.
std::vector<double> SelfTimesMs(const std::vector<obs::Span>& spans);

/// Accessor totals of the Reasoners a segment has used. Workloads that
/// replace their Reasoner on every write fold the old one in first.
struct ReasonerTotals {
  int64_t sat_calls = 0;    ///< Reasoner::TotalStats
  int64_t solves = 0;       ///< Reasoner::TotalSessionStats
  int64_t bank_models = 0;  ///< Reasoner::batch_stats
  void Add(const dd::Reasoner& r);
  /// Sets minimal.sat_calls, oracle.solves and batch.bank_models.
  void Report(Metrics* out) const;
};

/// Metrics every workload derives the same way from the program's own
/// reasoner-layer spans (batch.*, minimal.sat_calls, oracle.memo_hit_ratio,
/// sat.conflicts, analysis.fast_path_share). Returns the total time (ms)
/// of the outermost AnswerBatch spans.
double ReasonerSpanMetrics(const std::vector<obs::Span>& spans, Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
