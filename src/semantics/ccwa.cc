#include "semantics/ccwa.h"

#include "util/macros.h"

namespace dd {

CcwaSemantics::CcwaSemantics(const Database& db, Partition pqz,
                             const SemanticsOptions& opts)
    : ClosedWorldSemantics(db, opts), pqz_(std::move(pqz)) {
  DD_CHECK(pqz_.Validate().ok());
  DD_CHECK(pqz_.num_vars() == db.num_vars());
}

Result<bool> CcwaSemantics::HasModel() {
  // Every <P;Z>-minimal model satisfies the augmentation, so CCWA(DB) is
  // nonempty exactly when DB is satisfiable.
  if (db_.IsPositive()) return true;
  bool has = engine_.HasModel();
  if (engine_.interrupted()) return engine_.interrupt_status();
  return has;
}

Result<bool> CcwaSemantics::InfersLiteral(Lit l) {
  if (l.negative() && pqz_.p.Contains(l.var())) {
    bool exists = engine_.ExistsMinimalModelWith(~l, pqz_);
    if (engine_.interrupted()) return engine_.interrupt_status();
    return !exists;
  }
  return InfersFormula(FormulaNode::MakeLit(l));
}

Result<CountingInferenceResult> CcwaSemantics::InfersFormulaViaCounting(
    const Formula& f) {
  return CountingInference(&engine_, pqz_, f);
}

Result<Interpretation> CcwaSemantics::ComputeNegatedAtoms() {
  Interpretation free = engine_.FreeAtoms(pqz_);
  if (engine_.interrupted()) return engine_.interrupt_status();
  Interpretation negs(db_.num_vars());
  for (Var v = 0; v < db_.num_vars(); ++v) {
    if (pqz_.p.Contains(v) && !free.Contains(v)) negs.Insert(v);
  }
  return negs;
}

}  // namespace dd
