#include "obs/stats_view.h"

namespace dd {
namespace obs {

namespace {

const char* ExhaustionName(BudgetExhaustion e) {
  switch (e) {
    case BudgetExhaustion::kNone:
      return "none";
    case BudgetExhaustion::kDeadline:
      return "deadline";
    case BudgetExhaustion::kConflicts:
      return "conflicts";
    case BudgetExhaustion::kOracleCalls:
      return "oracle_calls";
    case BudgetExhaustion::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

}  // namespace

void Publish(const MinimalStats& s, MetricsRegistry* reg) {
  reg->Add("dd.minimal.sat_calls", s.sat_calls);
  reg->Add("dd.minimal.minimizations", s.minimizations);
  reg->Add("dd.minimal.cegar_iterations", s.cegar_iterations);
  reg->Add("dd.minimal.models_enumerated", s.models_enumerated);
  reg->Add("dd.minimal.hcf_checks", s.hcf_checks);
}

void Publish(const analysis::DispatchStats& d, MetricsRegistry* reg) {
  reg->Add("dd.dispatch.generic", d.generic);
  reg->Add("dd.dispatch.fixpoint_literal", d.fixpoint_literal);
  reg->Add("dd.dispatch.horn_least_model", d.horn_least_model);
  reg->Add("dd.dispatch.certain_fact", d.certain_fact);
  reg->Add("dd.dispatch.const_answer", d.const_answer);
  reg->Add("dd.dispatch.slice", d.slice_literal);
  reg->Add("dd.dispatch.module", d.module_formula);
  reg->Add("dd.dispatch.hcf", d.hcf_unfounded);
}

void Publish(const oracle::SessionStats& s, MetricsRegistry* reg) {
  reg->Add("dd.session.base_loads", s.base_loads);
  reg->Add("dd.session.solves", s.solves);
  reg->Add("dd.session.contexts_opened", s.contexts_opened);
  reg->Add("dd.session.contexts_retired", s.contexts_retired);
  reg->Add("dd.session.guarded_clauses", s.guarded_clauses);
  reg->Add("dd.session.cache_hits", s.cache_hits);
  reg->Add("dd.session.cache_misses", s.cache_misses);
  reg->Add("dd.session.projections_replayed", s.projections_replayed);
  reg->Add("dd.session.projections_discovered", s.projections_discovered);
  // The eviction counter lives under dd.oracle.*: it accounts the oracle
  // layer's bounded memos (minimality cache + projection store), not the
  // session protocol itself.
  reg->Add("dd.oracle.cache_evictions", s.cache_evictions);
}

void Publish(const QbfStats& q, MetricsRegistry* reg) {
  reg->Add("dd.qbf.candidate_calls", q.candidate_calls);
  reg->Add("dd.qbf.verification_calls", q.verification_calls);
  reg->Add("dd.qbf.refinements", q.refinements);
}

void Publish(const Budget& b, MetricsRegistry* reg) {
  reg->Add("dd.budget.conflicts_consumed", b.conflicts_consumed());
  reg->Add("dd.budget.oracle_calls_consumed", b.oracle_calls_consumed());
  BudgetExhaustion why = b.reason();
  if (why != BudgetExhaustion::kNone) {
    reg->Add(std::string("dd.budget.exhausted.") + ExhaustionName(why), 1);
  }
}

}  // namespace obs
}  // namespace dd
