// Possible Worlds Semantics (Chan 91) ≡ Possible Models Semantics
// (Sakama 89), paper Section 3.2.
//
// A *split* of DB selects a nonempty subset of every rule head; a possible
// model is the least model of the resulting definite program, provided it
// satisfies DB's integrity clauses. PWS augments DB with ¬x for every atom
// x false in all possible models:
//
//   PWS(DB) = M( DB ∪ {¬x : x ∉ ⋃ PM(DB)} )
//
// On positive databases the union of possible models equals the full-split
// least model (split choices are monotone), which is exactly the DDR
// fixpoint atom set — the polynomial path. Integrity clauses cut possible
// models away (Example 3.1: PWS |= ¬c where DDR does not) and push literal
// inference to coNP-completeness.
#ifndef DD_SEMANTICS_PWS_H_
#define DD_SEMANTICS_PWS_H_

#include <optional>
#include <vector>

#include "semantics/closed_world_base.h"

namespace dd {

class PwsSemantics : public ClosedWorldSemantics {
 public:
  /// Defined for deductive databases (no negation); operations fail with
  /// FailedPrecondition otherwise.
  explicit PwsSemantics(const Database& db, const SemanticsOptions& opts = {});

  SemanticsKind kind() const override { return SemanticsKind::kPws; }

  /// All possible models (deduplicated across splits). Exponential in the
  /// number of disjunctive rules; bounded by SemanticsOptions::max_candidates.
  Result<std::vector<Interpretation>> PossibleModels();

  /// Negative literals on positive DBs use the polynomial full-split path.
  Result<bool> InfersLiteral(Lit l) override;

  Result<bool> InfersFormula(const Formula& f) override;
  Result<bool> HasModel() override;

 protected:
  Result<Interpretation> ComputeNegatedAtoms() override;

 private:
  Status CheckDeductive() const;
  /// Union of all possible models (computed once, then cached).
  Result<Interpretation> PossibleAtoms();

  /// Syntactic class, classified once at construction (the per-query
  /// HasNegation()/IsPositive() rescans used to dominate the P-time path).
  bool deductive_;
  bool positive_;
  std::optional<Interpretation> possible_atoms_;
};

}  // namespace dd

#endif  // DD_SEMANTICS_PWS_H_
