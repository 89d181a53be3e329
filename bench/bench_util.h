// Shared helpers for the table-reproduction harnesses.
#ifndef DD_BENCH_BENCH_UTIL_H_
#define DD_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/stats_view.h"
#include "util/budget.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace dd {
namespace bench {

/// Command-line knobs shared by every harness:
///   --seed=N        root seed of the generated instance families
///   --threads=N     worker threads for the parallel helpers
///   --no-sessions   fresh-solver-per-oracle-call baseline (the A/B leg)
///   --timeout-ms=N  per-instance watchdog: a measured block that exceeds
///                   N ms of wall clock is cut off and its row is written
///                   with "timeout": true instead of hanging the sweep
/// Unknown arguments are ignored (harnesses stay composable with wrapper
/// scripts). Both --flag=value and --flag value spellings are accepted.
struct BenchArgs {
  uint64_t seed = 1;
  int threads = 1;
  bool use_sessions = true;
  int64_t timeout_ms = -1;

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs a;
    auto value_of = [&](const char* arg, const char* name,
                        int* i) -> const char* {
      size_t len = std::strlen(name);
      if (std::strncmp(arg, name, len) != 0) return nullptr;
      if (arg[len] == '=') return arg + len + 1;
      if (arg[len] == '\0' && *i + 1 < argc) return argv[++*i];
      return nullptr;
    };
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--no-sessions") == 0) {
        a.use_sessions = false;
      } else if (const char* v = value_of(argv[i], "--seed", &i)) {
        a.seed = std::strtoull(v, nullptr, 10);
      } else if (const char* v2 = value_of(argv[i], "--threads", &i)) {
        a.threads = static_cast<int>(std::strtol(v2, nullptr, 10));
      } else if (const char* v3 = value_of(argv[i], "--timeout-ms", &i)) {
        a.timeout_ms = std::strtoll(v3, nullptr, 10);
      }
    }
    return a;
  }
};

/// Per-instance watchdog budget (null when --timeout-ms is unset).
/// Install it on SemanticsOptions::budget before the measured block; after
/// the block, TimedOut() says whether the instance was cut off. Engines
/// poll the budget between oracle calls, so the cutoff is cooperative —
/// the sweep continues with the next instance instead of hanging.
inline std::shared_ptr<Budget> MakeWatchdogBudget(const BenchArgs& args) {
  if (args.timeout_ms < 0) return nullptr;
  Budget::Limits lim;
  lim.deadline_ms = args.timeout_ms;
  return Budget::Make(lim);
}

inline bool TimedOut(const std::shared_ptr<Budget>& b) {
  return b != nullptr && b->Exhausted();
}

/// The q-quantile of `v` by linear interpolation between order
/// statistics (perfbench's Quantile); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// One leg of a repeated row: the median and quartiles of its
/// per-repetition wall times.
struct BenchLeg {
  std::string name;
  double median_ms = 0.0;
  double q1_ms = 0.0;
  double q3_ms = 0.0;
  int reps = 0;
};

/// One machine-readable measurement row.
struct BenchRecord {
  std::string name;         ///< family / configuration label
  int n = 0;                ///< instance size parameter
  double wall_ms = 0.0;     ///< wall-clock for the measured block
  int64_t oracle_calls = 0; ///< semantic oracle calls (mode-invariant)
  int64_t cache_hits = 0;   ///< oracle answers served from session memo
  bool timeout = false;     ///< the --timeout-ms watchdog cut this row off
  /// Which leg the watchdog cut ("none", a leg name, or "both"); emitted
  /// as "timeout_leg" when nonempty.
  std::string timeout_leg;

  /// Per-phase wall-clock attribution (name, ms), insertion-ordered — e.g.
  /// {"generate", 0.4}, {"query", 11.2}. Emitted as the row's "phases"
  /// object when nonempty.
  std::vector<std::pair<std::string, double>> phases;

  /// Full counter snapshot for the row under the canonical dd.* names
  /// (build with SetMetrics or MetricsRegistry::Snapshot). Emitted as the
  /// row's "metrics" object via obs::WriteJson when nonempty.
  obs::MetricsSnapshot metrics;

  /// Repeated legs, emitted as the row's "legs" object when nonempty.
  std::vector<BenchLeg> legs;

  BenchRecord& AddPhase(std::string phase, double ms) {
    phases.emplace_back(std::move(phase), ms);
    return *this;
  }

  /// Adds a leg summarizing `samples_ms`, one wall time per repetition.
  BenchRecord& AddLeg(std::string leg, const std::vector<double>& samples_ms) {
    legs.push_back({std::move(leg), Quantile(samples_ms, 0.5),
                    Quantile(samples_ms, 0.25), Quantile(samples_ms, 0.75),
                    static_cast<int>(samples_ms.size())});
    return *this;
  }

  /// Sets `metrics` to a snapshot holding exactly the given stats structs
  /// (each folded in by its obs::Publish overload).
  template <typename... Stats>
  void SetMetrics(const Stats&... stats) {
    obs::MetricsRegistry reg;
    (obs::Publish(stats, &reg), ...);
    metrics = reg.Snapshot();
  }
};

/// Accumulates BenchRecords and writes them as BENCH_<name>.json in the
/// working directory (scripts/run_experiments.sh collects these). The file
/// is written by Write() or, failing that, by the destructor; the format is
/// a single JSON object {"bench": ..., "records": [...]}.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench) : bench_(std::move(bench)) {}
  BenchJsonWriter(const BenchJsonWriter&) = delete;
  BenchJsonWriter& operator=(const BenchJsonWriter&) = delete;
  ~BenchJsonWriter() { Write(); }

  void Add(BenchRecord r) { records_.push_back(std::move(r)); }
  void Add(const std::string& name, int n, double wall_ms,
           int64_t oracle_calls, int64_t cache_hits, bool timeout = false) {
    records_.push_back(
        {name, n, wall_ms, oracle_calls, cache_hits, timeout, {}, {}, {}, {}});
  }

  /// Writes BENCH_<bench>.json; idempotent. Returns false on I/O failure.
  /// Rows always carry the flat legacy fields; rows naming a watchdog leg
  /// gain "timeout_leg", repeated rows a "legs" object (per leg: median
  /// and quartiles of the repetitions' wall times, and their count), rows
  /// with phase timings a "phases" object, and rows with a counter
  /// snapshot a
  /// "metrics" object rendered through obs::WriteJson (the same
  /// serializer ddquery --metrics uses, so one schema serves both).
  bool Write() {
    if (written_) return true;
    std::string path = StrFormat("BENCH_%s.json", bench_.c_str());
    std::ofstream f(path);
    if (!f) return false;
    f << "{\n  \"bench\": \"" << obs::JsonEscape(bench_)
      << "\",\n  \"schema\": 2,\n  \"records\": [\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      f << StrFormat(
          "    {\"name\": \"%s\", \"n\": %d, \"wall_ms\": %.3f, "
          "\"oracle_calls\": %lld, \"cache_hits\": %lld, \"timeout\": %s",
          obs::JsonEscape(r.name).c_str(), r.n, r.wall_ms,
          static_cast<long long>(r.oracle_calls),
          static_cast<long long>(r.cache_hits),
          r.timeout ? "true" : "false");
      if (!r.timeout_leg.empty()) {
        f << ", \"timeout_leg\": \"" << obs::JsonEscape(r.timeout_leg) << "\"";
      }
      if (!r.legs.empty()) {
        f << ", \"legs\": {";
        for (size_t l = 0; l < r.legs.size(); ++l) {
          const BenchLeg& leg = r.legs[l];
          f << StrFormat(
              "\"%s\": {\"median_ms\": %.4f, \"q1_ms\": %.4f, "
              "\"q3_ms\": %.4f, \"reps\": %d}%s",
              obs::JsonEscape(leg.name).c_str(), leg.median_ms, leg.q1_ms,
              leg.q3_ms, leg.reps, l + 1 < r.legs.size() ? ", " : "");
        }
        f << "}";
      }
      if (!r.phases.empty()) {
        f << ", \"phases\": {";
        for (size_t p = 0; p < r.phases.size(); ++p) {
          f << StrFormat("\"%s\": %.3f%s",
                         obs::JsonEscape(r.phases[p].first).c_str(),
                         r.phases[p].second,
                         p + 1 < r.phases.size() ? ", " : "");
        }
        f << "}";
      }
      if (!r.metrics.counters.empty() || !r.metrics.histograms.empty()) {
        f << ", \"metrics\": ";
        obs::WriteJson(f, r.metrics);
      }
      f << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
    written_ = static_cast<bool>(f);
    return written_;
  }

 private:
  std::string bench_;
  std::vector<BenchRecord> records_;
  bool written_ = false;
};

/// Measures a per-size series and reports the growth pattern. `points`
/// holds (size, seconds) pairs; the estimate fits t ~ c * n^k on the last
/// points and reports k (a small k on a wide range reads "polynomial").
inline std::string GrowthNote(const std::vector<std::pair<int, double>>& pts) {
  if (pts.size() < 2) return "n/a";
  // Log-log slope between first and last point with nonzero time.
  double n0 = 0, t0 = 0, n1 = 0, t1 = 0;
  for (const auto& [n, t] : pts) {
    if (t > 1e-9) {
      if (t0 == 0) {
        n0 = n;
        t0 = t;
      }
      n1 = n;
      t1 = t;
    }
  }
  if (t0 == 0 || n0 == n1) return "flat";
  double k = std::log(t1 / t0) / std::log(n1 / n0);
  return StrFormat("t~n^%.1f", k);
}

}  // namespace bench
}  // namespace dd

#endif  // DD_BENCH_BENCH_UTIL_H_
