#include "semantics/ddr.h"

#include "fixpoint/ddr_fixpoint.h"
#include "util/macros.h"

namespace dd {

DdrSemantics::DdrSemantics(const Database& db, const SemanticsOptions& opts)
    : ClosedWorldSemantics(db, opts),
      deductive_(!db.HasNegation()),
      positive_(deductive_ && !db.HasIntegrityClauses()) {}

Status DdrSemantics::CheckDeductive() const {
  if (!deductive_) {
    return Status::FailedPrecondition(
        "DDR is defined for deductive databases (no negation)");
  }
  return Status::OK();
}

Result<Interpretation> DdrSemantics::FixpointAtoms() {
  DD_RETURN_IF_ERROR(CheckDeductive());
  if (!fixpoint_.has_value()) {
    DD_ASSIGN_OR_RETURN(Interpretation fix, DerivableAtoms(db_));
    fixpoint_ = std::move(fix);
  }
  return *fixpoint_;
}

Result<bool> DdrSemantics::InfersLiteral(Lit l) {
  DD_RETURN_IF_ERROR(CheckDeductive());
  if (l.negative() && positive_) {
    // Polynomial path (Chan): DDR |= ¬x iff x ∉ T_DB↑ω. If x is outside
    // the fixpoint, ¬x is part of the augmentation. If x is inside, the
    // fixpoint atom set is itself a model of DB plus the augmentation
    // (bodies inside it force heads inside it, and it avoids every negated
    // atom), and it contains x — a counter-model.
    DD_ASSIGN_OR_RETURN(Interpretation fix, FixpointAtoms());
    return !fix.Contains(l.var());
  }
  return InfersFormula(FormulaNode::MakeLit(l));
}

Result<bool> DdrSemantics::InfersFormula(const Formula& f) {
  DD_RETURN_IF_ERROR(CheckDeductive());
  return ClosedWorldSemantics::InfersFormula(f);
}

Result<bool> DdrSemantics::HasModel() {
  DD_RETURN_IF_ERROR(CheckDeductive());
  if (positive_) return true;  // T↑ω is a model of the augmentation
  return ClosedWorldSemantics::HasModel();
}

Result<Interpretation> DdrSemantics::ComputeNegatedAtoms() {
  DD_RETURN_IF_ERROR(CheckDeductive());
  Interpretation fix = DefiniteLeastModel(db_);
  Interpretation negs(db_.num_vars());
  for (Var v = 0; v < db_.num_vars(); ++v) {
    if (!fix.Contains(v)) negs.Insert(v);
  }
  return negs;
}

}  // namespace dd
