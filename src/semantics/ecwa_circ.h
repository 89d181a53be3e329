// Extended Closed World Assumption (Gelfond, Przymusinska & Przymusinski
// 89) ≡ propositional circumscription (Lifschitz 85), paper Section 3.3:
//
//   ECWA_{P;Z}(DB) = MM(DB;P;Z) = M(Circ(DB;P;Z))
//
// EGCWA is the case Q = Z = ∅. Complexity: literal and formula inference
// Π₂ᵖ-complete; model existence as EGCWA.
//
// The class carries both names: EcwaSemantics reasons over the
// <P;Z>-minimal models; IsCircumscriptionModel() exposes the circumscription
// view (pointwise model checking), which the tests use to confirm the
// ECWA = CIRC equivalence the paper relies on.
#ifndef DD_SEMANTICS_ECWA_CIRC_H_
#define DD_SEMANTICS_ECWA_CIRC_H_

#include "minimal/pqz.h"
#include "semantics/semantics.h"

namespace dd {

class EcwaSemantics : public Semantics {
 public:
  EcwaSemantics(const Database& db, Partition pqz,
                const SemanticsOptions& opts = {});

  SemanticsKind kind() const override { return SemanticsKind::kEcwa; }

  const Partition& partition() const { return pqz_; }

  /// True in every <P;Z>-minimal model.
  Result<bool> InfersFormula(const Formula& f) override;

  /// A <P;Z>-minimal model violating f, if any.
  Result<std::optional<Interpretation>> FindCounterexample(
      const Formula& f) override;

  Result<bool> HasModel() override;

  /// Every <P;Z>-minimal model, including Z-completions.
  Result<std::vector<Interpretation>> Models(int64_t cap = -1) override;

  /// Circumscription view: is `m` a model of Circ(DB;P;Z)? By Lifschitz'
  /// theorem this holds iff m ∈ MM(DB;P;Z); one SAT call.
  bool IsCircumscriptionModel(const Interpretation& m);

  /// Bulk circumscription check: verdicts[i] == IsCircumscriptionModel(
  /// candidates[i]). Fans the per-candidate SAT calls out over
  /// `opts.num_threads` workers (chunked deterministically, so the result
  /// and the merged stats are thread-count-invariant).
  std::vector<bool> AreCircumscriptionModels(
      const std::vector<Interpretation>& candidates);

 private:
  Partition pqz_;
};

}  // namespace dd

#endif  // DD_SEMANTICS_ECWA_CIRC_H_
