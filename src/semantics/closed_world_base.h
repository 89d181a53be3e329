// Shared machinery for the CWA-family semantics (GCWA, CCWA, DDR): each
// augments the database with a set of negative literals N and then reasons
// classically over DB ∪ N. Concrete semantics differ only in how N is
// computed (minimal models for GCWA/CCWA, the T_DB fixpoint for DDR).
#ifndef DD_SEMANTICS_CLOSED_WORLD_BASE_H_
#define DD_SEMANTICS_CLOSED_WORLD_BASE_H_

#include <optional>
#include <vector>

#include "semantics/semantics.h"

namespace dd {

/// Base class: models(DB ∪ {¬x : x ∈ NegatedAtoms()}).
class ClosedWorldSemantics : public Semantics {
 public:
  using Semantics::Semantics;

  /// The augmentation set N (cached after the first successful
  /// computation). Can fail for semantics whose N-computation is resource
  /// bounded (PWS split enumeration).
  Result<Interpretation> NegatedAtoms();

  /// DB ∪ N |= F (one SAT call once N is known).
  Result<bool> InfersFormula(const Formula& f) override;

  /// DB ∪ N consistent.
  Result<bool> HasModel() override;

  /// All classical models of DB ∪ N (enumeration with blocking).
  Result<std::vector<Interpretation>> Models(int64_t cap = -1) override;

  /// One SAT call on DB ∪ N ∧ ¬F.
  Result<std::optional<Interpretation>> FindCounterexample(
      const Formula& f) override;

 protected:
  /// Computes the set of atoms x whose ¬x joins the database.
  virtual Result<Interpretation> ComputeNegatedAtoms() = 0;

 private:
  std::optional<Interpretation> negs_;
};

}  // namespace dd

#endif  // DD_SEMANTICS_CLOSED_WORLD_BASE_H_
