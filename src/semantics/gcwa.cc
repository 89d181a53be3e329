#include "semantics/gcwa.h"

namespace dd {

GcwaSemantics::GcwaSemantics(const Database& db, const SemanticsOptions& opts)
    : ClosedWorldSemantics(db, opts),
      all_(Partition::MinimizeAll(db.num_vars())) {}

Result<bool> GcwaSemantics::InfersLiteral(Lit l) {
  if (l.negative()) {
    // GCWA |= ¬x iff x is false in every minimal model: if so, ¬x is part
    // of the augmentation; if x is true in some minimal model M, then M is
    // itself a GCWA model containing x.
    bool exists = engine_.ExistsMinimalModelWith(~l, all_);
    if (engine_.interrupted()) return engine_.interrupt_status();
    return !exists;
  }
  return InfersFormula(FormulaNode::MakeLit(l));
}

Result<bool> GcwaSemantics::HasModel() {
  // MM(DB) ⊆ GCWA(DB): consistency coincides with classical satisfiability,
  // which is immediate for positive databases (the all-true interpretation
  // is a model) — the O(1) entry of Table 1.
  if (db_.IsPositive()) return true;
  bool has = engine_.HasModel();
  if (engine_.interrupted()) return engine_.interrupt_status();
  return has;
}

Result<CountingInferenceResult> GcwaSemantics::InfersFormulaViaCounting(
    const Formula& f) {
  return CountingInference(&engine_, all_, f);
}

Result<Interpretation> GcwaSemantics::ComputeNegatedAtoms() {
  Interpretation free = engine_.FreeAtoms(all_);
  if (engine_.interrupted()) return engine_.interrupt_status();
  Interpretation negs(db_.num_vars());
  for (Var v = 0; v < db_.num_vars(); ++v) {
    if (!free.Contains(v)) negs.Insert(v);
  }
  return negs;
}

}  // namespace dd
