#include "harness.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>

namespace perfbench {

namespace {

/// Seed offset of the warm-up stream: a different input set of the same
/// shape, so caches and the allocator are warm but no answer carries over.
constexpr uint64_t kWarmupSeedSalt = 0x5eedf00dULL;

/// Fresh set-ups per round; a round runs before the first request and
/// then at the first pass boundary after every kSetupEverySeconds of
/// requests. setup_s is the median over all rounds.
constexpr int kMinSetupsPerRound = 5;
constexpr int kMaxSetupsPerRound = 100;
constexpr double kSetupRoundSeconds = 0.15;
constexpr double kSetupEverySeconds = 1.5;

/// Traced runs alternate untraced and traced segments at least this often.
constexpr int kMinTracePairs = 2;

/// Candidate tail percentiles, highest first; the tail metric uses the
/// highest one with at least kTailBeyond read positions above it. p99.9 is
/// left out: at these request counts it measures host preemption, not the
/// program (NOTES.md).
constexpr double kTailLadder[] = {0.99, 0.9, 0.5};
constexpr double kTailBeyond = 10;

/// Self-time layers reported per request, in output order. "client" is
/// traced wall time not covered by any span.
const char* const kSelfLayers[] = {"serve",   "logic",  "core",
                                   "reasoner", "minimal", "oracle",
                                   "ground",  "tmpl"};

/// The only check of the workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "serve_zipf") return MakeServeZipf(seed);
  if (name == "template_rw") return MakeTemplateRw(seed);
  return nullptr;
}

/// Peak resident set of this process (VmHWM). getrusage's ru_maxrss is
/// not used: it keeps the peak of the process image before exec, i.e. of
/// the launcher.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

std::string FormatNumber(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

/// Requests timed from outside, one pass position per slot.
struct Timing {
  explicit Timing(int64_t pass)
      : best_ms(static_cast<size_t>(pass),
                std::numeric_limits<double>::infinity()),
        kind(static_cast<size_t>(pass), OpKind::kRead) {}
  std::vector<double> best_ms;  ///< fastest time seen at each position
  std::vector<OpKind> kind;
  double busy_s = 0;  ///< time spent inside requests
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Runs requests [first, first + n), stopping early at `deadline` (0 for
/// none), and times each one from outside.
void RunRequests(Workload* wl, int64_t first, int64_t n, double deadline,
                 obs::TraceContext* trace, Timing* out) {
  const size_t pass = out->best_ms.size();
  for (int64_t i = first;
       i < first + n && (deadline == 0 || NowSeconds() < deadline); ++i) {
    const double t0 = NowSeconds();
    const Op op = wl->Step(i, trace);
    const double dt = NowSeconds() - t0;
    const size_t at = static_cast<size_t>(i) % pass;
    out->best_ms[at] = std::min(out->best_ms[at], dt * 1e3);
    out->kind[at] = op.kind;
    out->busy_s += dt;
    ++out->attempted;
    if (!op.ok) ++out->failed;
  }
}

/// Warm-up on a different seed: same code paths, disjoint inputs.
void WarmUp(const Args& args) {
  std::unique_ptr<Workload> warm =
      MakeWorkload(args.workload, args.seed ^ kWarmupSeedSalt);
  warm->Setup(nullptr);
  Timing t(warm->PassRequests());
  RunRequests(warm.get(), 0, INT64_MAX,
              NowSeconds() + std::min(2.0, 0.2 * args.seconds), nullptr, &t);
}

/// Prints the result line, preceded (when there are any) by a '#' line
/// naming the metrics that are counts: steadiness.py compares those
/// between runs.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const Metrics& m) {
  std::string counts = "# counts:";
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metrics::Item& it : m.items()) {
    if (it.count) counts += " " + it.name;
    if (!first) line += ", ";
    first = false;
    line += "\"" + it.name + "\": {\"value\": " + FormatNumber(it.value) +
            ", \"unit\": \"" + it.unit + "\"}";
  }
  line += "}}";
  if (counts != "# counts:") std::printf("%s\n", counts.c_str());
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int RunEndToEnd(const Args& args, Workload* wl) {
  WarmUp(args);

  // setup_s: median of fresh set-ups of a second instance, taken in rounds
  // spread over the run, so that host drift within the run averages out of
  // it.
  std::unique_ptr<Workload> probe = MakeWorkload(args.workload, args.seed);
  std::vector<double> setups;
  auto setup_round = [&] {
    const double start = NowSeconds();
    for (int rep = 0; rep < kMaxSetupsPerRound &&
                      (rep < kMinSetupsPerRound ||
                       NowSeconds() - start < kSetupRoundSeconds);
         ++rep) {
      probe->Reset();
      const double t0 = NowSeconds();
      probe->Setup(nullptr);
      setups.push_back(NowSeconds() - t0);
    }
  };
  setup_round();
  wl->Setup(nullptr);

  // The stream repeats with period `pass`, so every position is timed
  // once per pass and keeps its fastest time. Host contention only ever
  // slows a request down, and on this kind of host it comes in bursts of
  // seconds (NOTES.md), so the fastest of several passes is the request's
  // own cost. The first pass always completes; the deadline may cut a
  // later one short.
  const int64_t pass = wl->PassRequests();
  Timing t(pass);
  double last_round = NowSeconds();
  const double deadline = NowSeconds() + args.seconds;
  int64_t passes = 0;
  for (; passes == 0 || NowSeconds() < deadline; ++passes) {
    RunRequests(wl, passes * pass, pass, passes == 0 ? 0 : deadline, nullptr,
                &t);
    if (NowSeconds() - last_round >= kSetupEverySeconds) {
      setup_round();
      last_round = NowSeconds();
    }
  }
  const double rss = PeakRssMb();
  const int64_t wrong = wl->Audit();
  const int64_t failed = t.failed + wrong;

  std::vector<double> reads, writes;
  double pass_ms = 0;
  for (size_t at = 0; at < t.best_ms.size(); ++at) {
    pass_ms += t.best_ms[at];
    (t.kind[at] == OpKind::kRead ? reads : writes).push_back(t.best_ms[at]);
  }
  // Tail percentile: the highest of kTailLadder with at least kTailBeyond
  // read positions above it.
  double tail_q = kTailLadder[std::size(kTailLadder) - 1];
  for (double q : kTailLadder) {
    if (static_cast<double>(reads.size()) * (1 - q) >= kTailBeyond) {
      tail_q = q;
      break;
    }
  }
  std::printf(
      "# %s seed=%llu: %lld requests (%.1f/s over all passes), %.2f passes "
      "of %lld; %zu set-ups; tail = p%g over %zu read positions (%.0f "
      "beyond); audit: %lld wrong\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<long long>(t.attempted),
      static_cast<double>(t.attempted) / t.busy_s,
      static_cast<double>(t.attempted) / static_cast<double>(pass),
      static_cast<long long>(pass), setups.size(), tail_q * 100,
      reads.size(), static_cast<double>(reads.size()) * (1 - tail_q),
      static_cast<long long>(wrong));

  Metrics m;
  m.Set("requests_per_s", static_cast<double>(pass) / (pass_ms / 1e3), "1/s");
  m.Set("latency_p50_ms", Quantile(reads, 0.5), "ms");
  m.Set("latency_tail_ms", Quantile(reads, tail_q), "ms");
  m.Set("write_p50_ms", Quantile(writes, 0.5), "ms");
  m.Set("setup_s", Quantile(setups, 0.5), "s");
  m.Set("peak_rss_mb", rss, "MB");
  m.Set("ok_ratio",
        static_cast<double>(t.attempted - failed) /
            static_cast<double>(t.attempted),
        "ratio");
  PrintResult(wrong == 0, t.attempted, failed, m);
  return wrong == 0 ? 0 : 1;
}

/// Per-layer self time (ms per request) plus the accounting identities:
/// trace.self_sum_ratio = Σ self / Σ root durations (1 for a well-nested
/// tree) and trace.span_coverage = Σ root durations / traced wall time.
void SelfTimeMetrics(const std::vector<obs::Span>& spans, double wall_ms,
                     int64_t requests, Metrics* out) {
  const std::vector<double> self = SelfTimesMs(spans);
  std::map<std::string, double> by_layer;
  double self_sum = 0;
  double roots = 0;
  for (const obs::Span& sp : spans) {
    if (sp.end_us < 0) continue;
    by_layer[sp.layer] += self[static_cast<size_t>(sp.id)];
    self_sum += self[static_cast<size_t>(sp.id)];
    if (sp.parent < 0) roots += (sp.end_us - sp.start_us) / 1e3;
  }
  const double per = 1.0 / static_cast<double>(std::max<int64_t>(1, requests));
  for (const char* layer : kSelfLayers) {
    out->Set(std::string("self.") + layer + "_ms", by_layer[layer] * per,
             "ms");
  }
  out->Set("self.client_ms", std::max(0.0, wall_ms - roots) * per, "ms");
  out->Set("trace.wall_ms", wall_ms * per, "ms");
  out->Set("trace.self_sum_ratio", roots > 0 ? self_sum / roots : 0, "ratio");
  out->Set("trace.span_coverage", wall_ms > 0 ? roots / wall_ms : 0, "ratio");
}

int RunTraced(const Args& args, Workload* wl) {
  WarmUp(args);
  const int64_t n = wl->PassRequests();

  // Alternate untraced and traced segments so slow host drift hits both
  // sides alike; every segment is one pass from a fresh Setup.
  std::vector<double> untraced_rps;
  std::vector<double> traced_rps;
  Metrics layer;              // from the first traced segment
  std::unique_ptr<obs::TraceContext> kept;
  int64_t attempted = 0;
  int64_t failed = 0;
  int drifted = 0;
  const double deadline = NowSeconds() + args.seconds;
  for (int pair = 0;
       pair < kMinTracePairs || NowSeconds() < deadline; ++pair) {
    for (bool traced : {false, true}) {
      auto ctx = traced ? std::make_unique<obs::TraceContext>() : nullptr;
      wl->Reset();
      const double t0 = NowSeconds();
      wl->Setup(ctx.get());
      Timing s(n);
      RunRequests(wl, 0, n, 0, ctx.get(), &s);
      const double wall_ms = (NowSeconds() - t0) * 1e3;
      attempted += s.attempted;
      failed += s.failed;
      (traced ? traced_rps : untraced_rps)
          .push_back(static_cast<double>(s.attempted) / s.busy_s);
      if (!traced) continue;
      const std::vector<obs::Span> spans = ctx->Snapshot();
      Metrics m;
      const double batch_ms = ReasonerSpanMetrics(spans, &m);
      wl->LayerMetrics(spans, &m);
      // Mean cost of one oracle solve inside AnswerBatch, where the
      // workload can read the solve count (Reasoner::TotalSessionStats).
      const Metrics::Item* solves = m.Find("oracle.solves");
      if (solves != nullptr && solves->value > 0) {
        m.Set("sat.us_per_solve", batch_ms * 1e3 / solves->value, "us");
      }
      SelfTimeMetrics(spans, wall_ms, n, &m);
      if (kept == nullptr) {
        layer = m;
        kept = std::move(ctx);
        continue;
      }
      // Determinism check: a count that differs between two segments of
      // the same seed is a bug in the program or the benchmark.
      for (const Metrics::Item& it : layer.items()) {
        const Metrics::Item* again = m.Find(it.name);
        if (it.count && again != nullptr && again->value != it.value) {
          ++drifted;
          std::fprintf(stderr, "COUNT DRIFT %s: %.17g then %.17g\n",
                       it.name.c_str(), it.value, again->value);
        }
      }
    }
  }
  const int64_t wrong = wl->Audit();
  failed += wrong;

  const std::string trace_path = args.work_dir + "/trace_" + args.workload +
                                 "_" + std::to_string(args.seed) + ".json";
  std::ofstream(trace_path) << kept->ToJsonString();
  std::printf(
      "# %s seed=%llu: %zu traced + %zu untraced segments of %lld requests; "
      "count drifts: %d; audit: %lld wrong; spans in %s\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      traced_rps.size(), untraced_rps.size(), static_cast<long long>(n),
      drifted, static_cast<long long>(wrong), trace_path.c_str());

  layer.Set("obs.trace_overhead_ratio",
            Quantile(untraced_rps, 0.5) / Quantile(traced_rps, 0.5), "ratio");
  PrintResult(wrong == 0, attempted, failed, layer);
  return wrong == 0 ? 0 : 1;
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Metrics::Set(std::string_view name, double value, std::string_view unit,
                  bool count) {
  for (Item& it : items_) {
    if (it.name == name) {
      it.value = value;
      it.unit = std::string(unit);
      it.count = count;
      return;
    }
  }
  items_.push_back({std::string(name), value, std::string(unit), count});
}

const Metrics::Item* Metrics::Find(std::string_view name) const {
  for (const Item& it : items_) {
    if (it.name == name) return &it;
  }
  return nullptr;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<double> SpanDurationsMs(const std::vector<obs::Span>& spans,
                                    std::string_view name,
                                    std::string_view attr,
                                    std::string_view value) {
  std::vector<double> out;
  for (const obs::Span& sp : spans) {
    if (sp.end_us < 0 || sp.name != name) continue;
    if (!attr.empty()) {
      const std::string* a = sp.Attr(attr);
      if (a == nullptr || *a != value) continue;
    }
    out.push_back((sp.end_us - sp.start_us) / 1e3);
  }
  return out;
}

std::vector<double> SelfTimesMs(const std::vector<obs::Span>& spans) {
  int max_id = -1;
  for (const obs::Span& sp : spans) max_id = std::max(max_id, sp.id);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      static_cast<size_t>(max_id + 1));
  for (const obs::Span& sp : spans) {
    if (sp.parent >= 0 && sp.end_us >= 0) {
      children[static_cast<size_t>(sp.parent)].push_back(
          {sp.start_us, sp.end_us});
    }
  }
  std::vector<double> self(static_cast<size_t>(max_id + 1), 0.0);
  for (const obs::Span& sp : spans) {
    if (sp.end_us < 0) continue;
    // Union of the children's intervals, clipped to the parent.
    auto& kids = children[static_cast<size_t>(sp.id)];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = sp.start_us;
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, sp.end_us);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    self[static_cast<size_t>(sp.id)] =
        (sp.end_us - sp.start_us - covered) / 1e3;
  }
  return self;
}

double ReasonerSpanMetrics(const std::vector<obs::Span>& spans,
                           Metrics* out) {
  // Outermost reasoner spans only: a nested entry point's counters are
  // already part of its parent's deltas.
  std::vector<const obs::Span*> by_id;
  for (const obs::Span& sp : spans) {
    if (sp.id >= static_cast<int>(by_id.size())) by_id.resize(sp.id + 1);
    by_id[static_cast<size_t>(sp.id)] = &sp;
  }
  int64_t oracle_calls = 0, memo_hits = 0, memo_misses = 0, conflicts = 0;
  int64_t groups = 0, bank_groups = 0, store_hits = 0;
  int64_t evaluated = 0, oracle_free = 0;
  std::vector<double> batch_ms;
  double batch_total_ms = 0;
  for (const obs::Span& sp : spans) {
    if (sp.layer != "reasoner" || sp.end_us < 0) continue;
    const obs::Span* parent =
        sp.parent >= 0 ? by_id[static_cast<size_t>(sp.parent)] : nullptr;
    if (parent != nullptr && parent->layer == "reasoner") continue;
    oracle_calls += sp.Counter("oracle_calls");
    memo_hits += sp.Counter("cache_hits");
    memo_misses += sp.Counter("cache_misses");
    conflicts += sp.Counter("conflicts_consumed");
    const bool is_batch =
        sp.name == "AnswerBatch" || sp.name == "AnswerBatchCredulous";
    const int64_t g = sp.Counter("batch_groups");
    if (is_batch) {
      batch_total_ms += (sp.end_us - sp.start_us) / 1e3;
      groups += g;
      bank_groups += sp.Counter("batch_bank_groups");
      store_hits += sp.Counter("batch_bank_store_hits");
      if (g > 0) batch_ms.push_back((sp.end_us - sp.start_us) / 1e3);
    }
    // An entry point that evaluated something (a batch with planned
    // groups, or any single-query call) either needed the NP oracle or
    // was answered by the polynomial analysis/HCF paths.
    if (!is_batch || g > 0) {
      ++evaluated;
      if (sp.Counter("oracle_calls") == 0) ++oracle_free;
    }
  }
  auto ratio = [](int64_t a, int64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  out->Set("analysis.fast_path_share", ratio(oracle_free, evaluated), "ratio",
           true);
  out->Set("batch.answer_batch_ms", Quantile(batch_ms, 0.5), "ms");
  out->Set("batch.bank_groups", bank_groups, "count", true);
  out->Set("batch.fallback_groups", groups - bank_groups, "count", true);
  out->Set("batch.bank_store_hit_ratio", ratio(store_hits, groups), "ratio",
           true);
  out->Set("minimal.sat_calls", oracle_calls, "count", true);
  out->Set("oracle.memo_hit_ratio", ratio(memo_hits, memo_hits + memo_misses),
           "ratio", true);
  out->Set("sat.conflicts", conflicts, "count", true);
  return batch_total_ms;
}

void ReasonerTotals::Add(const dd::Reasoner& r) {
  sat_calls += r.TotalStats().sat_calls;
  solves += r.TotalSessionStats().solves;
  bank_models += r.batch_stats().bank_models;
}

void ReasonerTotals::Report(Metrics* out) const {
  out->Set("minimal.sat_calls", static_cast<double>(sat_calls), "count",
           true);
  out->Set("oracle.solves", static_cast<double>(solves), "count", true);
  out->Set("batch.bank_models", static_cast<double>(bank_models), "count",
           true);
}

int RunBenchmark(const Args& args) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, args.seed);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return args.trace ? RunTraced(args, wl.get()) : RunEndToEnd(args, wl.get());
}

}  // namespace perfbench
