// Extended Generalized Closed World Assumption (Yahya & Henschen 85),
// paper Section 3.3: DB is augmented by every negative clause true in all
// minimal models, which model-theoretically collapses to
//
//   EGCWA(DB) = MM(DB).
//
// Complexity: literal and formula inference Π₂ᵖ-complete; model existence
// O(1) for positive DBs, NP-complete with integrity clauses.
#ifndef DD_SEMANTICS_EGCWA_H_
#define DD_SEMANTICS_EGCWA_H_

#include "minimal/pqz.h"
#include "semantics/semantics.h"

namespace dd {

class EgcwaSemantics : public Semantics {
 public:
  explicit EgcwaSemantics(const Database& db,
                          const SemanticsOptions& opts = {});

  SemanticsKind kind() const override { return SemanticsKind::kEgcwa; }

  /// True in every minimal model (counterexample-guided, Π₂ᵖ-faithful).
  Result<bool> InfersFormula(const Formula& f) override;

  /// The CEGAR loop's witness: a minimal model violating f, if any.
  Result<std::optional<Interpretation>> FindCounterexample(
      const Formula& f) override;

  /// O(1) for positive databases; one SAT call otherwise.
  Result<bool> HasModel() override;

  /// The minimal models themselves.
  Result<std::vector<Interpretation>> Models(int64_t cap = -1) override;

  /// Zero-copy model handle: EGCWA's model set IS the engine's memoized
  /// projection stream, so once enumeration exhausts the stream this
  /// aliases its storage instead of re-materializing — the stream, the
  /// batch layer's in-flight bank and the bank store then share ONE copy
  /// (safe: exhausted streams are frozen, and stream eviction only drops
  /// the engine's reference). Falls back to the copying default when the
  /// stream is unavailable (fresh-solver mode). Same cap/overflow
  /// conventions as Models().
  Result<std::shared_ptr<const std::vector<Interpretation>>> SharedModels(
      int64_t cap = -1) override;

  /// The augmentation EGCWA literally performs (Yahya & Henschen): the
  /// ⊆-minimal atom sets S with |S| <= max_size such that the negative
  /// clause ¬s1 | ... | ¬sk is true in every minimal model — equivalently,
  /// no minimal model contains S. Each returned set is minimal: every
  /// proper subset is contained in some minimal model. GCWA's negation set
  /// is exactly the singletons here.
  Result<std::vector<std::vector<Var>>> EntailedNegativeClauses(
      int max_size);

 private:
  Partition all_;
  /// Classified once at construction; HasModel() consults it per call.
  bool positive_;
};

}  // namespace dd

#endif  // DD_SEMANTICS_EGCWA_H_
