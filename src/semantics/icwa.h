// Iterated Closed World Assumption (Gelfond, Przymusinska & Przymusinski
// 89), paper Section 4: ECWA applied stratum by stratum to a disjunctive
// stratified database.
//
// With strata P1 > ... > Pr and floating atoms Z, over the positivized
// database DB+ (negative body literals moved into the head):
//
//   ICWA(DB) = ⋂ᵢ ECWA_{Pᵢ ; Pᵢ₊₁ ∪ ... ∪ P_r ∪ Z}(DB+)
//
// i.e. the models that are <Pᵢ;Zᵢ>-minimal for every stratum i, where
// stratum atoms below i are fixed and those above float.
//
// Complexity: formula inference Π₂ᵖ (Theorem 4.1), literal inference
// Π₂ᵖ-hard already for positive DBs (Theorem 4.2, via Theorem 3.1 with the
// single-stratum stratification); model existence O(1) given a
// stratification (stratifiability asserts consistency).
#ifndef DD_SEMANTICS_ICWA_H_
#define DD_SEMANTICS_ICWA_H_

#include <vector>

#include "minimal/pqz.h"
#include "semantics/semantics.h"
#include "strat/stratifier.h"

namespace dd {

class IcwaSemantics : public Semantics {
 public:
  /// Stratifies the database itself (FailedPrecondition surfaces from the
  /// first operation if that is impossible). Every atom belongs to the
  /// stratum the stratifier assigns; the extra floating set Z is empty
  /// under this constructor.
  explicit IcwaSemantics(const Database& db, const SemanticsOptions& opts = {});

  /// Uses a caller-provided stratification (the paper treats S as given).
  IcwaSemantics(const Database& db, Stratification strat,
                const SemanticsOptions& opts = {});

  SemanticsKind kind() const override { return SemanticsKind::kIcwa; }

  /// Is `m` an ICWA model, i.e. <Pᵢ;Zᵢ>-minimal for every stratum?
  /// (r SAT calls.)
  Result<bool> IsIcwaModel(const Interpretation& m);

  Result<bool> InfersFormula(const Formula& f) override;

  /// O(1): a stratified database always has ICWA models (paper Section 4);
  /// the method fails only when no stratification exists.
  Result<bool> HasModel() override;

  Result<std::vector<Interpretation>> Models(int64_t cap = -1) override;

 private:
  Status EnsureStratified();
  /// The positivized database DB+, which the owned engine reasons over.
  const Database& positivized() const { return engine_.db(); }

  std::optional<Stratification> strat_;
  bool strat_provided_ = false;
  std::vector<Partition> stratum_partitions_;
};

}  // namespace dd

#endif  // DD_SEMANTICS_ICWA_H_
