#include "tmpl/answer.h"

#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "util/string_util.h"

namespace dd {
namespace tmpl {

namespace {

/// The whole-template budget, as the sequential entry points consume it
/// (naive mode and the consistency probe).
QueryOptions QueryOptionsFrom(const batch::BatchOptions& b) {
  QueryOptions q;
  q.deadline_ms = b.deadline_ms;
  q.conflict_budget = b.conflict_budget;
  q.oracle_call_budget = b.oracle_call_budget;
  q.cancel = b.cancel;
  q.trace = b.trace;
  return q;
}

/// Attribute-sized template preview for trace spans.
std::string TemplatePreview(const Template& t) {
  std::string s = t.ToString();
  constexpr size_t kCap = 120;
  if (s.size() > kCap) s = s.substr(0, kCap) + "...";
  return s;
}

}  // namespace

void TemplateStats::Add(const TemplateStats& o) {
  templates += o.templates;
  candidates += o.candidates;
  full_space += o.full_space;
  pruned += o.pruned;
  answers += o.answers;
  unknowns += o.unknowns;
  vacuous += o.vacuous;
  naive_evals += o.naive_evals;
}

void Publish(const TemplateStats& s, obs::MetricsRegistry* reg) {
  reg->Add("dd.tmpl.templates", s.templates);
  reg->Add("dd.tmpl.candidates", s.candidates);
  reg->Add("dd.tmpl.full_space", s.full_space);
  reg->Add("dd.tmpl.pruned", s.pruned);
  reg->Add("dd.tmpl.answers", s.answers);
  reg->Add("dd.tmpl.unknowns", s.unknowns);
  reg->Add("dd.tmpl.vacuous", s.vacuous);
  reg->Add("dd.tmpl.naive_evals", s.naive_evals);
}

Result<TemplateAnswer> AnswerTemplate(Reasoner* r, SemanticsKind kind,
                                      const Template& t,
                                      batch::BatchMode mode,
                                      const TemplateOptions& opts) {
  const bool brave = mode == batch::BatchMode::kBrave;
  obs::TraceContext* trace =
      opts.batch.trace != nullptr ? opts.batch.trace : r->trace();
  obs::ScopedSpan span(trace, "tmpl_answers", "tmpl");
  span.Attr("semantics", SemanticsKindName(kind));
  span.Attr("mode", brave ? "brave" : "skeptical");
  span.Attr("template", TemplatePreview(t));

  TemplateAnswer out;
  out.vars = t.vars;
  out.stats.templates = 1;

  bool index_built = false;
  const ground::TupleIndex& idx = r->mention_index(&index_built);
  span.Counter("index_built", index_built ? 1 : 0);

  // Pruning gates (header comment): a custom CCWA/ECWA partition lets
  // unmentioned atoms float, and a model-free database makes skeptical
  // inference vacuous — both fall back to the full-universe odometer.
  bool prune = true;
  if (r->partition() != nullptr &&
      (kind == SemanticsKind::kCcwa || kind == SemanticsKind::kEcwa)) {
    prune = false;
  }
  if (prune && !brave) {
    Result<Trilean> consistent =
        r->HasModel(kind, QueryOptionsFrom(opts.batch));
    if (!consistent.ok()) return consistent.status();
    if (*consistent != Trilean::kYes) prune = false;
    if (*consistent == Trilean::kNo) {
      out.vacuous = true;
      out.stats.vacuous = 1;
    }
  }
  span.Attr("pruned", prune ? "yes" : "no");

  EnumerateOptions eo;
  eo.max_candidates = opts.max_candidates;
  eo.prune = prune;
  DD_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> bindings,
                      EnumerateBindings(t, idx, eo));
  out.candidates = static_cast<int64_t>(bindings.size());
  out.stats.candidates = out.candidates;
  out.stats.full_space =
      SaturatingPow(static_cast<int64_t>(idx.universe().size()),
                    t.vars.size());
  if (prune && out.stats.full_space > out.candidates) {
    out.stats.pruned = out.stats.full_space - out.candidates;
  }

  // The batch takes pre-built queries; the sequential entry points of
  // naive mode take text.
  std::vector<batch::BatchQuery> queries;
  queries.reserve(bindings.size());
  for (const std::vector<std::string>& b : bindings) {
    queries.push_back(opts.naive ? InstantiateQuery(t, b, mode)
                                 : BuildQuery(t, b, r));
  }

  std::vector<Trilean> verdicts;
  verdicts.reserve(queries.size());
  if (opts.naive) {
    // A/B baseline: every instantiation through the sequential entry
    // points — no batch, no shared bank, no cache. Each call builds its
    // own budget from the same limits (the batch path shares ONE budget
    // across the whole template; docs/TEMPLATES.md §benchmarks).
    QueryOptions q = QueryOptionsFrom(opts.batch);
    for (const batch::BatchQuery& query : queries) {
      Result<Trilean> v =
          brave ? r->InfersCredulously(kind, query.text, q)
                : (query.is_literal ? r->InfersLiteral(kind, query.text, q)
                                    : r->InfersFormula(kind, query.text, q));
      if (!v.ok()) return v.status();
      verdicts.push_back(*v);
      ++out.stats.naive_evals;
    }
  } else if (!queries.empty()) {
    Result<batch::BatchAnswer> ba =
        brave ? r->AnswerBatchCredulous(kind, queries, opts.batch)
              : r->AnswerBatch(kind, queries, opts.batch);
    if (!ba.ok()) return ba.status();
    verdicts = std::move(ba->answers);
    out.batch_stats = std::move(ba->stats);
  }

  for (size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i] == Trilean::kYes) {
      out.yes.push_back(bindings[i]);
    } else if (verdicts[i] == Trilean::kUnknown) {
      out.unknown.push_back(bindings[i]);
    }
  }
  out.stats.answers = static_cast<int64_t>(out.yes.size());
  out.stats.unknowns = static_cast<int64_t>(out.unknown.size());

  span.Counter("candidates", out.candidates);
  span.Counter("answers", out.stats.answers);
  span.Counter("unknowns", out.stats.unknowns);
  return out;
}

Result<TemplateAnswer> AnswerTemplateText(Reasoner* r, SemanticsKind kind,
                                          std::string_view template_text,
                                          batch::BatchMode mode,
                                          const TemplateOptions& opts) {
  DD_ASSIGN_OR_RETURN(Template t, ParseTemplate(template_text));
  return AnswerTemplate(r, kind, t, mode, opts);
}

std::string FormatAnswer(const TemplateAnswer& a) {
  std::string out;
  auto render = [&](const char* tag,
                    const std::vector<std::vector<std::string>>& rows) {
    for (const std::vector<std::string>& row : rows) {
      out += tag;
      for (size_t i = 0; i < row.size(); ++i) {
        out += i ? " " : " ";
        out += a.vars[i] + "=" + row[i];
      }
      out += "\n";
    }
  };
  render("answer:", a.yes);
  render("unknown:", a.unknown);
  out += StrFormat("answers: %lld yes, %lld unknown, %lld candidates",
                   static_cast<long long>(a.yes.size()),
                   static_cast<long long>(a.unknown.size()),
                   static_cast<long long>(a.candidates));
  if (a.vacuous) out += " (no intended model: vacuous)";
  out += "\n";
  return out;
}

}  // namespace tmpl
}  // namespace dd
