// Perfect Models Semantics (Przymusinski 88), paper Section 5.1.
//
// The priority relation (strat/priority.h) induces a preference order on
// models: N is *preferable* to M (N « M) iff N ≠ M and every atom of N∖M is
// compensated by an atom of M∖N with strictly higher priority. A model is
// *perfect* when no model is preferable to it.
//
// Perfect models are minimal models (with no strict priorities, « collapses
// to ⊊), so PERF = MM on positive databases; on stratified databases the
// perfect models coincide with the iterated stratified minimal models,
// which this class also implements as an independent algorithm.
//
// Complexity: "is M perfect" is one SAT call (the paper's "DB' has no
// model" transformation); literal/formula inference Π₂ᵖ-complete; model
// existence Σ₂ᵖ-complete for DNDBs.
#ifndef DD_SEMANTICS_PERF_H_
#define DD_SEMANTICS_PERF_H_

#include "minimal/pqz.h"
#include "semantics/semantics.h"
#include "strat/priority.h"
#include "strat/stratifier.h"

namespace dd {

class PerfSemantics : public Semantics {
 public:
  /// Defined for databases without integrity clauses (paper footnote 3);
  /// operations fail with FailedPrecondition otherwise.
  explicit PerfSemantics(const Database& db, const SemanticsOptions& opts = {});

  SemanticsKind kind() const override { return SemanticsKind::kPerf; }

  const PriorityRelation& priority() const { return priority_; }

  /// One SAT call: no model preferable to `m` exists. (This realizes the
  /// paper's reduction of the perfect-model check to unsatisfiability of a
  /// transformed database DB'.)
  Result<bool> IsPerfect(const Interpretation& m);

  /// Enumerates minimal models and filters by IsPerfect (perfect ⊆ minimal).
  Result<std::vector<Interpretation>> Models(int64_t cap = -1) override;

  /// Independent algorithm for stratified databases: stratum-wise iterated
  /// minimal models. FailedPrecondition when the DB is not stratifiable.
  Result<std::vector<Interpretation>> ModelsByStrataIteration(
      int64_t cap = -1);

  Result<bool> InfersFormula(const Formula& f) override;
  Result<bool> HasModel() override;

  /// A perfect model violating f, if any.
  Result<std::optional<Interpretation>> FindCounterexample(
      const Formula& f) override;

 private:
  Status CheckSupported() const;

  PriorityRelation priority_;
  Partition all_;
};

}  // namespace dd

#endif  // DD_SEMANTICS_PERF_H_
