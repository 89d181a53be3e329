// template_rw: the first-order pipeline (ground/ -> tmpl/).
//
// A two-ring first-order program (the bench_template family): a ring whose
// color choice is genuinely disjunctive because two edges swap colors, so
// the program is not head-cycle-free, and a ring whose colors are forced.
// Reads are tmpl::AnswerTemplateText requests drawn from several templates,
// skeptical and brave, under GCWA and EGCWA. Every kWriteEvery-th request
// is a program edit: a pendant fact is added or removed, and the new text
// is parsed (ground::ParseProgram), grounded (GroundBottomUp) and given a
// fresh Reasoner. Edits cycle, so program versions recur.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/reasoner.h"
#include "ground/grounder.h"
#include "ground/parser.h"
#include "harness.h"
#include "tmpl/answer.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

constexpr int kSwapRing = 48;
constexpr int kForcedRing = 16;
constexpr int kEdits = 6;  ///< pendant facts; versions cycle with period 2x
constexpr int kVersions = 2 * kEdits;
constexpr int64_t kWriteEvery = 24;
/// Four edit cycles (every program version four times), so a pass holds
/// enough reads for a p99.
constexpr int64_t kPass = 4 * kWriteEvery * kVersions;

const char* const kTemplates[] = {
    "color(X,C)",
    "color(X,r)",
    "color(X,g)",
    "edge(X,Y), color(Y,r)",
    "color(X,g), not color(X,r)",
};

struct Request {
  std::string text;
  dd::SemanticsKind kind;
  dd::batch::BatchMode mode;
};

/// The two rings; the seed places the second color-swapping edge.
std::string BaseProgram(dd::Rng* rng) {
  const int swap_at = 2 + static_cast<int>(rng->Below(kSwapRing - 3));
  std::string p = "color(x1,r) | color(x1,g).\n";
  for (int i = 1; i < kSwapRing; ++i) {
    p += dd::StrFormat(i == swap_at ? "sedge(x%d,x%d).\n" : "edge(x%d,x%d).\n",
                       i, i + 1);
  }
  p += dd::StrFormat("sedge(x%d,x1).\n", kSwapRing);
  p += "color(y1,r).\n";
  for (int i = 1; i < kForcedRing; ++i) {
    p += dd::StrFormat("edge(y%d,y%d).\n", i, i + 1);
  }
  p += dd::StrFormat("edge(y%d,y1).\n", kForcedRing);
  p += "color(Y,C) :- edge(X,Y), color(X,C).\n";
  p += "color(Y,r) :- sedge(X,Y), color(X,g).\n";
  p += "color(Y,g) :- sedge(X,Y), color(X,r).\n";
  p += ":- color(X,r), color(X,g).\n";
  return p;
}

class TemplateRw : public Workload {
 public:
  explicit TemplateRw(uint64_t seed) {
    dd::Rng rng(dd::DeriveSeed(seed, 1));
    const std::string base = BaseProgram(&rng);
    // Pendant facts hang off either ring: off the swap ring they are
    // colored either way (brave answers), off the forced ring always r.
    std::vector<std::string> edits;
    for (int e = 0; e < kEdits; ++e) {
      const bool swap = e % 2 == 0;
      const int at = 1 + static_cast<int>(
                             rng.Below(swap ? kSwapRing : kForcedRing));
      edits.push_back(dd::StrFormat("edge(%c%d,p%d).\n", swap ? 'x' : 'y',
                                    at, e));
    }
    // Version v < kEdits holds edits 0..v-1; later versions remove them
    // again in order, returning to the base program.
    for (int v = 0; v < kVersions; ++v) {
      std::string text = base;
      for (int e = 0; e < kEdits; ++e) {
        if (v < kEdits ? e < v : e >= v - kEdits) text += edits[e];
      }
      texts_.push_back(std::move(text));
    }
    for (const char* t : kTemplates) {
      for (dd::SemanticsKind kind :
           {dd::SemanticsKind::kGcwa, dd::SemanticsKind::kEgcwa}) {
        for (dd::batch::BatchMode mode :
             {dd::batch::BatchMode::kSkeptical, dd::batch::BatchMode::kBrave}) {
          requests_.push_back({t, kind, mode});
        }
      }
    }
    // One pass of reads, drawn up front so that the timed region holds
    // only the request (write positions are never read).
    stream_.resize(kPass);
    for (size_t& idx : stream_) idx = rng.Below(requests_.size());
    answers_.resize(kVersions * requests_.size());
  }

  void Reset() override {
    totals_ = ReasonerTotals{};
    stats_ = dd::tmpl::TemplateStats{};
    clauses_ = 0;
    reasoner_.reset();
  }

  void Setup(dd::obs::TraceContext* trace) override { Load(0, trace); }

  Op Step(int64_t i, dd::obs::TraceContext* trace) override {
    Op op;
    if ((i + 1) % kWriteEvery == 0) {
      op.kind = OpKind::kWrite;
      op.ok = Load(Version(i + 1), trace);
      return op;
    }
    if (reasoner_ == nullptr) {
      op.ok = false;
      return op;
    }
    const size_t idx = stream_[static_cast<size_t>(i % kPass)];
    const Request& req = requests_[idx];
    dd::tmpl::TemplateOptions opts;
    opts.batch.trace = trace;
    if (trace != nullptr) opts.batch.conflict_budget = kUnreachableConflicts;
    dd::Result<dd::tmpl::TemplateAnswer> a = [&] {
      dd::obs::ScopedSpan span(trace, "AnswerTemplate", "tmpl");
      return dd::tmpl::AnswerTemplateText(reasoner_.get(), req.kind, req.text,
                                          req.mode, opts);
    }();
    op.ok = a.ok() && a->unknown.empty();
    if (!op.ok) return op;
    stats_.Add(a->stats);
    Record& rec = answers_[static_cast<size_t>(Version(i)) * requests_.size() +
                           idx];
    ++rec.count;
    if (rec.count == 1) {
      rec.yes = std::move(a->yes);
    } else if (rec.yes != a->yes) {
      rec.consistent = false;
    }
    return op;
  }

  int64_t PassRequests() const override { return kPass; }

  int64_t Audit() override {
    int64_t wrong = 0;
    for (int v = 0; v < kVersions; ++v) {
      std::unique_ptr<dd::Reasoner> ref;
      for (size_t idx = 0; idx < requests_.size(); ++idx) {
        const Record& rec = answers_[v * requests_.size() + idx];
        if (rec.count == 0) continue;
        if (ref == nullptr) ref = Ground(texts_[v]);
        const Request& req = requests_[idx];
        dd::tmpl::TemplateOptions naive;
        naive.naive = true;
        auto want = dd::tmpl::AnswerTemplateText(ref.get(), req.kind, req.text,
                                                 req.mode, naive);
        if (!rec.consistent || !want.ok() || !want->unknown.empty() ||
            want->yes != rec.yes) {
          std::fprintf(stderr, "AUDIT MISMATCH [v%d] %s %s %s\n", v,
                       dd::SemanticsKindName(req.kind),
                       req.mode == dd::batch::BatchMode::kBrave ? "brave"
                                                                : "skeptical",
                       req.text.c_str());
          wrong += rec.count;
        }
      }
    }
    return wrong;
  }

  void LayerMetrics(const std::vector<dd::obs::Span>& spans,
                    Metrics* out) override {
    ReasonerTotals t = totals_;
    if (reasoner_ != nullptr) t.Add(*reasoner_);
    t.Report(out);
    // tmpl_answers self time: index build, binding enumeration and
    // instantiation, i.e. everything but the batch it hands off.
    const std::vector<double> self = SelfTimesMs(spans);
    std::vector<double> enumerate;
    for (const dd::obs::Span& sp : spans) {
      if (sp.name == "tmpl_answers" && sp.end_us >= 0) {
        enumerate.push_back(self[static_cast<size_t>(sp.id)]);
      }
    }
    out->Set("ground.parse_ms",
             Quantile(SpanDurationsMs(spans, "ParseProgram"), 0.5), "ms");
    out->Set("ground.ground_ms",
             Quantile(SpanDurationsMs(spans, "GroundBottomUp"), 0.5), "ms");
    out->Set("ground.clauses", static_cast<double>(clauses_), "count", true);
    out->Set("core.reasoner_init_ms",
             Quantile(SpanDurationsMs(spans, "Reasoner"), 0.5), "ms");
    out->Set("tmpl.enumerate_ms", Quantile(enumerate, 0.5), "ms");
    out->Set("tmpl.answer_ms",
             Quantile(SpanDurationsMs(spans, "AnswerTemplate"), 0.5), "ms");
    out->Set("tmpl.candidates", static_cast<double>(stats_.candidates),
             "count", true);
    out->Set("tmpl.pruned_ratio",
             stats_.full_space > 0 ? static_cast<double>(stats_.pruned) /
                                         static_cast<double>(stats_.full_space)
                                   : 0,
             "ratio", true);
  }

 private:
  /// Template answers seen for one (version, request), for the audit.
  struct Record {
    int64_t count = 0;
    std::vector<std::vector<std::string>> yes;
    bool consistent = true;
  };

  static int Version(int64_t i) {
    return static_cast<int>((i / kWriteEvery) % kVersions);
  }

  /// Parses and grounds `text` into a fresh Reasoner (null on failure).
  std::unique_ptr<dd::Reasoner> Ground(const std::string& text,
                                       dd::obs::TraceContext* trace = nullptr) {
    dd::Result<dd::ground::FoProgram> fo = [&] {
      dd::obs::ScopedSpan span(trace, "ParseProgram", "ground");
      return dd::ground::ParseProgram(text);
    }();
    if (!fo.ok()) return nullptr;
    dd::Result<dd::Database> db = [&] {
      dd::obs::ScopedSpan span(trace, "GroundBottomUp", "ground");
      return dd::ground::GroundBottomUp(*fo);
    }();
    if (!db.ok()) return nullptr;
    clauses_ += db->num_clauses();
    dd::obs::ScopedSpan span(trace, "Reasoner", "core");
    return std::make_unique<dd::Reasoner>(std::move(db).value());
  }

  bool Load(int version, dd::obs::TraceContext* trace) {
    if (reasoner_ != nullptr) totals_.Add(*reasoner_);
    reasoner_ = Ground(texts_[version], trace);
    return reasoner_ != nullptr;
  }

  std::vector<std::string> texts_;  ///< program text per version
  std::vector<Request> requests_;
  std::vector<size_t> stream_;  ///< request index read at each position
  std::vector<Record> answers_;  ///< index: version * |requests| + request
  std::unique_ptr<dd::Reasoner> reasoner_;
  ReasonerTotals totals_;  ///< Reasoners replaced since Reset
  dd::tmpl::TemplateStats stats_;
  int64_t clauses_ = 0;  ///< ground clauses emitted since Reset
};

}  // namespace

std::unique_ptr<Workload> MakeTemplateRw(uint64_t seed) {
  return std::make_unique<TemplateRw>(seed);
}

}  // namespace perfbench
