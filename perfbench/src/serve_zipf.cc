// serve_zipf: the serve request path (serve/ -> batch/ -> analysis/).
//
// A module-structured head-cycle-free database (gen::HcfModularDdb) in two
// versions with the same atom names. Reads are QUERY/BRAVE protocol lines
// sent through QueryServer::HandleLine, drawn Zipf-skewed from a universe
// of literal, formula and brave lines under GCWA, EGCWA, DSM and CCWA. The
// universe is larger than the default answer-cache capacity, and the
// modules x semantics outnumber the 32-bank store. Every kReloadEvery-th
// request is a write: the library form of the RELOAD verb, ParseDatabase
// on the other version's text followed by QueryServer::Reload, which
// replaces the session and with it the answer cache and bank store.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/reasoner.h"
#include "gen/generators.h"
#include "harness.h"
#include "logic/parser.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using dd::SemanticsKind;

constexpr int kModules = 24;
constexpr int kVarsPerModule = 10;
constexpr int kClausesPerModule = 12;
constexpr int64_t kReloadEvery = 4000;
/// Two sessions, one per database version; the second ends by reloading
/// the first version, which starts a fresh session.
constexpr int64_t kPass = 2 * kReloadEvery;
constexpr double kZipfExponent = 1.1;

enum class Verb { kLit, kInfer, kBrave };

struct Line {
  std::string text;  ///< the protocol line
  Verb verb = Verb::kLit;
  SemanticsKind kind = SemanticsKind::kGcwa;
  std::string query;
};

struct Semantic {
  const char* name;
  SemanticsKind kind;
};
const Semantic kSemantics[] = {{"gcwa", SemanticsKind::kGcwa},
                               {"egcwa", SemanticsKind::kEgcwa},
                               {"dsm", SemanticsKind::kDsm},
                               {"ccwa", SemanticsKind::kCcwa}};

std::string Atom(int module, int var) {
  return dd::StrFormat("m%d_p%d", module, var);
}

/// The module of the first atom in `text` (every clause and query line
/// stays inside one module).
int ModuleOf(std::string_view text) {
  const size_t at = text.find('m');
  return at == std::string_view::npos ? 0
                                      : std::atoi(text.data() + at + 1);
}

/// Literal lines for every atom and polarity, plus per-module formula and
/// brave lines, in seeded order: the Zipf
/// rank of a line is its position.
std::vector<Line> MakeUniverse(dd::Rng* rng) {
  std::vector<Line> lines;
  auto add = [&](Verb verb, const Semantic& s, std::string q) {
    Line l;
    l.verb = verb;
    l.kind = s.kind;
    l.query = std::move(q);
    l.text = verb == Verb::kBrave
                 ? dd::StrFormat("BRAVE %s %s", s.name, l.query.c_str())
                 : dd::StrFormat("QUERY %s %s %s", s.name,
                                 verb == Verb::kLit ? "lit" : "infer",
                                 l.query.c_str());
    lines.push_back(std::move(l));
  };
  // A two-atom formula over random atoms of modules m1 and m2.
  auto formula = [&](const char* fmt, int m1, int m2) {
    const int v1 = static_cast<int>(rng->Below(kVarsPerModule));
    const int v2 = static_cast<int>(rng->Below(kVarsPerModule));
    return dd::StrFormat(fmt, Atom(m1, v1).c_str(), Atom(m2, v2).c_str());
  };
  for (const Semantic& s : kSemantics) {
    for (int m = 0; m < kModules; ++m) {
      for (int v = 0; v < kVarsPerModule; ++v) {
        add(Verb::kLit, s, Atom(m, v));
        add(Verb::kLit, s, dd::StrFormat("not m%d_p%d", m, v));
      }
      for (int k = 0; k < 6; ++k) {
        add(Verb::kInfer, s, formula("%s | %s", m, m));
        add(Verb::kInfer, s, formula("%s & ~%s", m, m));
        add(Verb::kBrave, s, formula("%s & %s", m, m));
        add(Verb::kBrave, s, formula("~%s & ~%s", m, m));
      }
      add(Verb::kInfer, s, formula("%s | ~%s", m, m));
    }
  }
  rng->Shuffle(&lines);
  return lines;
}

class ServeZipf : public Workload {
 public:
  explicit ServeZipf(uint64_t seed) {
    for (int v = 0; v < 2; ++v) {
      texts_[v] = dd::HcfModularDdb(kModules, kVarsPerModule,
                                    kClausesPerModule,
                                    dd::DeriveSeed(seed, 10 + v))
                      .ToString();
    }
    dd::Rng rng(dd::DeriveSeed(seed, 1));
    universe_ = MakeUniverse(&rng);
    std::vector<double> cdf;
    double sum = 0;
    for (size_t r = 1; r <= universe_.size(); ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
      cdf.push_back(sum);
    }
    // One pass of reads, drawn up front so that the timed region holds
    // only the request (write positions are never read).
    dd::Rng draw(dd::DeriveSeed(seed, 2));
    stream_.resize(kPass);
    for (size_t& idx : stream_) {
      idx = std::min(static_cast<size_t>(
                         std::upper_bound(cdf.begin(), cdf.end(),
                                          draw.NextDouble() * sum) -
                         cdf.begin()),
                     universe_.size() - 1);
    }
    answers_.resize(2 * universe_.size());
  }

  void Reset() override { server_.reset(); }

  void Setup(dd::obs::TraceContext* trace) override {
    dd::Database db = Parse(0, trace);
    dd::obs::ScopedSpan span(trace, "QueryServer", "serve");
    dd::serve::ServeOptions opts;
    opts.trace = trace;
    server_ = std::make_unique<dd::serve::QueryServer>(std::move(db), opts);
  }

  Op Step(int64_t i, dd::obs::TraceContext* trace) override {
    Op op;
    if ((i + 1) % kReloadEvery == 0) {
      op.kind = OpKind::kWrite;
      dd::Database db = Parse(Version(i + 1), trace);
      dd::obs::ScopedSpan span(trace, "Reload", "serve");
      op.ok = server_->Reload(std::move(db)).ok();
      return op;
    }
    const size_t idx = stream_[static_cast<size_t>(i % kPass)];
    const Line& line = universe_[idx];
    std::string resp;
    {
      dd::obs::ScopedSpan span(trace, "HandleLine", "serve");
      bool quit = false;
      resp = server_->HandleLine(line.text, &quit);
      const bool cached = resp.find(" cached=1") != std::string::npos;
      span.Attr("cached", cached ? "1" : "0");
    }
    const bool yes = resp.rfind("ANSWER yes ", 0) == 0;
    op.ok = yes || resp.rfind("ANSWER no ", 0) == 0;
    if (op.ok) {
      Record& rec = answers_[static_cast<size_t>(Version(i)) *
                                 universe_.size() +
                             idx];
      ++rec.count;
      ++(yes ? rec.yes : rec.no);
    }
    return op;
  }

  int64_t PassRequests() const override { return kPass; }

  // Reference answers come from a fresh Reasoner over the line's own module
  // (the clauses mentioning its atoms). Modules share no atoms, so the
  // intended models of the whole database are products of the modules'
  // ones and every line's answer is decided inside its module; the
  // sequential brave entry point does not slice and would otherwise search
  // the whole database.
  int64_t Audit() override {
    int64_t wrong = 0;
    for (int v = 0; v < 2; ++v) {
      std::vector<std::string> module_text(kModules);
      for (std::string_view rest = texts_[v]; !rest.empty();) {
        const size_t eol = rest.find('\n');
        const std::string_view clause = rest.substr(0, eol);
        rest = eol == std::string_view::npos ? "" : rest.substr(eol + 1);
        module_text[ModuleOf(clause)] += std::string(clause) + "\n";
      }
      std::vector<std::unique_ptr<dd::Reasoner>> ref(kModules);
      for (size_t idx = 0; idx < universe_.size(); ++idx) {
        const Record& rec = answers_[v * universe_.size() + idx];
        if (rec.count == 0) continue;
        const Line& l = universe_[idx];
        const int m = ModuleOf(l.query);
        if (ref[m] == nullptr) {
          ref[m] = std::make_unique<dd::Reasoner>(
              std::move(dd::ParseDatabase(module_text[m])).value());
        }
        dd::Trilean want = dd::Trilean::kUnknown;
        if (l.verb == Verb::kBrave) {
          auto r = ref[m]->InfersCredulously(l.kind, l.query);
          if (r.ok()) want = *r;
        } else {
          auto r = l.verb == Verb::kLit
                       ? ref[m]->InfersLiteral(l.kind, l.query)
                       : ref[m]->InfersFormula(l.kind, l.query);
          if (r.ok()) want = dd::TrileanFromBool(*r);
        }
        const int64_t bad = want == dd::Trilean::kYes  ? rec.no
                            : want == dd::Trilean::kNo ? rec.yes
                                                       : rec.count;
        if (bad > 0) {
          std::fprintf(stderr, "AUDIT MISMATCH [v%d] %s: expected %s\n", v,
                       l.text.c_str(), dd::TrileanName(want));
        }
        wrong += bad;
      }
    }
    return wrong;
  }

  void LayerMetrics(const std::vector<dd::obs::Span>& spans,
                    Metrics* out) override {
    const dd::serve::ServeStats s = server_->stats();
    std::vector<double> hits =
        SpanDurationsMs(spans, "HandleLine", "cached", "1");
    for (double& h : hits) h *= 1e3;
    std::vector<double> init = SpanDurationsMs(spans, "QueryServer");
    std::vector<double> reloads = SpanDurationsMs(spans, "Reload");
    init.insert(init.end(), reloads.begin(), reloads.end());
    const double reads = static_cast<double>(s.requests);
    out->Set("serve.hit_p50_us", Quantile(hits, 0.5), "us");
    out->Set("serve.miss_p50_ms",
             Quantile(SpanDurationsMs(spans, "HandleLine", "cached", "0"), 0.5),
             "ms");
    out->Set("serve.rungs_per_read", static_cast<double>(s.rungs) / reads,
             "count", true);
    out->Set("serve.hit_ratio", static_cast<double>(s.cache_hits) / reads,
             "ratio", true);
    out->Set("serve.bank_reuses", static_cast<double>(s.bank_reuses), "count",
             true);
    out->Set("serve.reload_ms", Quantile(reloads, 0.5), "ms");
    out->Set("logic.parse_db_ms",
             Quantile(SpanDurationsMs(spans, "ParseDatabase"), 0.5), "ms");
    out->Set("core.reasoner_init_ms", Quantile(init, 0.5), "ms");
  }

 private:
  /// Answers seen for one (version, line), for the audit.
  struct Record {
    int64_t count = 0;
    int64_t yes = 0;
    int64_t no = 0;
  };

  /// Database version serving request `i` (writes alternate versions).
  static int Version(int64_t i) {
    return static_cast<int>((i / kReloadEvery) % 2);
  }

  dd::Database Parse(int version, dd::obs::TraceContext* trace) {
    dd::obs::ScopedSpan span(trace, "ParseDatabase", "logic");
    return std::move(dd::ParseDatabase(texts_[version])).value();
  }

  std::string texts_[2];
  std::vector<Line> universe_;
  std::vector<size_t> stream_;  ///< universe index read at each position
  std::unique_ptr<dd::serve::QueryServer> server_;
  std::vector<Record> answers_;  ///< index: version * |universe| + line
};

}  // namespace

std::unique_ptr<Workload> MakeServeZipf(uint64_t seed) {
  return std::make_unique<ServeZipf>(seed);
}

}  // namespace perfbench
