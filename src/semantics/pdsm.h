// Partial (3-valued) Disjunctive Stable Model Semantics (Przymusinski 91),
// paper Section 5.2.
//
// Interpretations assign {0, 1/2, 1}. The 3-valued reduct DB^I replaces
// every negative body literal by its (constant) truth value under I; I is a
// partial stable model iff I is a truth-minimal 3-valued model of DB^I.
//
// Implementation: the two-bit encoding t(v) => nf(v) maps each 3-valued
// interpretation to a set of bits ordered exactly like the truth ordering
// (0=(0,0) < 1/2=(0,1) < 1=(1,1)), so 3-valued truth-minimality becomes
// ordinary subset-minimality of a derived two-valued database over 2n
// atoms, and the whole MinimalEngine machinery applies.
//
// Inference reads "F is inferred" as "F evaluates to true (1) in every
// partial stable model" (strong Kleene). Complexity: as DSM (paper: the
// same rows of Tables 1 and 2; model existence stays Σ₂ᵖ-hard even
// without integrity clauses, end of Section 5.2).
#ifndef DD_SEMANTICS_PDSM_H_
#define DD_SEMANTICS_PDSM_H_

#include <vector>

#include "minimal/pqz.h"
#include "semantics/semantics.h"

namespace dd {

class PdsmSemantics : public Semantics {
 public:
  explicit PdsmSemantics(const Database& db,
                         const SemanticsOptions& opts = {});

  SemanticsKind kind() const override { return SemanticsKind::kPdsm; }

  /// Builds the reduct's bit-level database and runs one subset-minimality
  /// check (one SAT call).
  Result<bool> IsPartialStable(const PartialInterpretation& i);

  /// All partial stable models (exact-blocking enumeration over the
  /// two-bit encoding; bounded by SemanticsOptions::max_candidates).
  Result<std::vector<PartialInterpretation>> PartialModels(int64_t cap = -1);

  /// The *total* partial stable models, i.e. precisely the disjunctive
  /// stable models (cross-checked against DsmSemantics in the tests).
  Result<std::vector<Interpretation>> Models(int64_t cap = -1) override;

  /// F true (value 1) in every partial stable model.
  Result<bool> InfersFormula(const Formula& f) override;

  /// The true-atom projection of a partial stable model in which f is not
  /// true; prefer FindPartialCounterexample for the full 3-valued witness.
  Result<std::optional<Interpretation>> FindCounterexample(
      const Formula& f) override;

  /// The 3-valued witness itself.
  Result<std::optional<PartialInterpretation>> FindPartialCounterexample(
      const Formula& f);

  Result<bool> HasModel() override;

  /// The two-bit encoding of the 3-valued models of the database itself
  /// (exposed for tests): atom v maps to bits t=v and nf=num_vars+v.
  const Database& bit_database() const { return engine_.db(); }

  /// Bit-level <-> 3-valued conversions for the encoding above.
  PartialInterpretation DecodeBits(const Interpretation& bits) const;
  Interpretation EncodeBits(const PartialInterpretation& i) const;

 private:
  /// Visits partial stable models until `visit` returns false.
  Status ForEachPartialStable(
      const std::function<bool(const PartialInterpretation&)>& visit);

  Database BuildReductBitDb(const PartialInterpretation& i) const;
};

}  // namespace dd

#endif  // DD_SEMANTICS_PDSM_H_
