#include "semantics/cwa.h"

#include "sat/solver.h"

namespace dd {

CwaSemantics::CwaSemantics(const Database& db, const SemanticsOptions& opts)
    : ClosedWorldSemantics(db, opts) {}

Result<Interpretation> CwaSemantics::ComputeNegatedAtoms() {
  // ¬x joins CWA(DB) iff DB |≠ x, i.e. DB ∧ ¬x is satisfiable (or DB
  // itself is unsatisfiable, in which case everything is entailed and
  // nothing is negated — CWA(DB) is then inconsistent anyway).
  const Database& database = db_;
  Interpretation negs(database.num_vars());
  sat::Solver s;
  s.SetBudget(opts_.budget);
  s.EnsureVars(database.num_vars());
  for (const auto& cl : database.ToCnf()) s.AddClause(cl);
  for (Var v = 0; v < database.num_vars(); ++v) {
    sat::SolveResult r = s.Solve({Lit::Neg(v)});
    if (r == sat::SolveResult::kUnknown) {
      // Folding kUnknown into "not negated" would silently shrink the
      // augmentation set and change downstream answers.
      MinimalStats ms;
      ms.sat_calls = s.stats().solve_calls;
      engine_.AbsorbStats(ms);
      return BudgetOrUnknownStatus(opts_.budget,
                                   "CWA augmentation oracle unknown");
    }
    if (r == sat::SolveResult::kSat) {
      negs.Insert(v);
    }
  }
  MinimalStats ms;
  ms.sat_calls = s.stats().solve_calls;
  engine_.AbsorbStats(ms);
  return negs;
}

}  // namespace dd
