// Disjunctive Stable Model Semantics (Przymusinski 91), paper Section 5.2.
//
// The Gelfond-Lifschitz reduct DB^M drops every clause whose negative body
// intersects M and strips the negative bodies of the rest; M is a
// disjunctive stable model iff M ∈ MM(DB^M). Stable models are minimal
// models of DB, and on positive databases DSM = MM.
//
// Complexity: stability of a candidate is one SAT call; literal and
// formula inference Π₂ᵖ-complete; model existence Σ₂ᵖ-complete for DNDBs
// (trivial for positive DBs).
#ifndef DD_SEMANTICS_DSM_H_
#define DD_SEMANTICS_DSM_H_

#include "minimal/pqz.h"
#include "semantics/semantics.h"

namespace dd {

class DsmSemantics : public Semantics {
 public:
  explicit DsmSemantics(const Database& db, const SemanticsOptions& opts = {});

  SemanticsKind kind() const override { return SemanticsKind::kDsm; }

  /// One reduct construction + one minimality (SAT) call.
  Result<bool> IsStable(const Interpretation& m);

  /// Enables support pruning in the candidate search: every stable model
  /// is *supported* (each true atom has a rule with true body, false
  /// negative body and no other true head atom), so the candidate solver
  /// carries that encoding and skips unsupported minimal models wholesale.
  /// Sound and complete for stable models; on by default.
  void SetSupportPruning(bool on) { support_pruning_ = on; }

  /// Enumerates minimal models of DB and filters by stability.
  Result<std::vector<Interpretation>> Models(int64_t cap = -1) override;

  Result<bool> InfersFormula(const Formula& f) override;

  /// A stable model violating f, if any.
  Result<std::optional<Interpretation>> FindCounterexample(
      const Formula& f) override;

  /// Trivially true for positive DBs (DSM = MM ≠ ∅); candidate search
  /// otherwise (the Σ₂ᵖ-complete entry).
  Result<bool> HasModel() override;

 private:
  /// Runs `visit` over stable models until it returns false.
  Status ForEachStable(const std::function<bool(const Interpretation&)>& visit);

  Partition all_;
  bool support_pruning_ = true;
};

}  // namespace dd

#endif  // DD_SEMANTICS_DSM_H_
