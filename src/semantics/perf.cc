#include "semantics/perf.h"

#include "sat/solver.h"
#include "util/string_util.h"

namespace dd {

PerfSemantics::PerfSemantics(const Database& db, const SemanticsOptions& opts)
    : Semantics(db, opts),
      priority_(db),
      all_(Partition::MinimizeAll(db.num_vars())) {}

Status PerfSemantics::CheckSupported() const {
  if (db_.HasIntegrityClauses()) {
    return Status::FailedPrecondition(
        "PERF is defined for databases without integrity clauses "
        "(paper footnote 3)");
  }
  return Status::OK();
}

Result<bool> PerfSemantics::IsPerfect(const Interpretation& m) {
  DD_RETURN_IF_ERROR(CheckSupported());
  if (!db_.Satisfies(m)) return false;
  // One SAT call: does a model N preferable to m exist? N « m iff N ≠ m and
  // every x ∈ N∖m is dominated by some y ∈ m∖N with x < y. This is "DB plus
  // a few query clauses", so it rides the engine's persistent session (a
  // dedicated solver in --no-sessions mode); the per-candidate loop in
  // Models() makes it the hot PERF oracle call.
  MinimalEngine::Query q(&engine_);
  std::vector<Lit> differs;
  for (Var v = 0; v < db_.num_vars(); ++v) {
    differs.push_back(m.Contains(v) ? Lit::Neg(v) : Lit::Pos(v));
  }
  q.AddClause(std::move(differs));
  for (Var x = 0; x < db_.num_vars(); ++x) {
    if (m.Contains(x)) continue;
    std::vector<Lit> dom{Lit::Neg(x)};
    for (Var y : priority_.StrictlyAbove(x).TrueAtoms()) {
      if (m.Contains(y)) dom.push_back(Lit::Neg(y));
    }
    q.AddClause(std::move(dom));
  }
  sat::SolveResult r = q.Solve();
  if (engine_.interrupted()) {
    // kUnknown must not read as kUnsat ("perfect"): degrade to Status.
    return engine_.interrupt_status();
  }
  return r == sat::SolveResult::kUnsat;
}

Result<std::vector<Interpretation>> PerfSemantics::Models(int64_t cap) {
  DD_RETURN_IF_ERROR(CheckSupported());
  if (cap < 0) cap = opts_.max_models;
  std::vector<Interpretation> out;
  Status inner = Status::OK();
  int64_t candidates = 0;
  engine_.EnumerateMinimalProjections(
      all_, /*cap=*/-1, [&](const Interpretation& m) {
        if (++candidates > opts_.max_candidates) {
          inner = Status::ResourceExhausted("too many minimal models");
          return false;
        }
        Result<bool> perfect = IsPerfect(m);
        if (!perfect.ok()) {
          inner = perfect.status();
          return false;
        }
        if (*perfect) {
          out.push_back(m);
          if (static_cast<int64_t>(out.size()) >= cap) return false;
        }
        return true;
      });
  if (engine_.interrupted()) {
    // Anytime payload: each collected model passed IsPerfect before the
    // interrupt, so the set is a sound truncated prefix.
    partial_models_ = std::move(out);
    return engine_.interrupt_status();
  }
  if (!inner.ok()) {
    if (inner.IsBudgetExhaustion()) partial_models_ = std::move(out);
    return inner;
  }
  return out;
}

Result<std::vector<Interpretation>> PerfSemantics::ModelsByStrataIteration(
    int64_t cap) {
  DD_RETURN_IF_ERROR(CheckSupported());
  if (cap < 0) cap = opts_.max_models;
  DD_ASSIGN_OR_RETURN(Stratification strat, Stratify(db_));

  std::vector<Interpretation> out;
  Status inner = Status::OK();
  int64_t explored = 0;

  // Depth-first over strata: at level i extend the prefix (atoms of levels
  // < i) by every minimal completion of the clauses up to level i.
  std::function<void(int, const Interpretation&)> descend =
      [&](int level, const Interpretation& prefix) {
        if (!inner.ok() || static_cast<int64_t>(out.size()) >= cap) return;
        if (level == strat.num_strata) {
          out.push_back(prefix);
          return;
        }
        // Clauses up to this level, plus pins for the prefix atoms.
        Database dbi = db_.SelectClauses(strat.ClausesUpToLevel(level));
        for (Var v = 0; v < db_.num_vars(); ++v) {
          if (strat.atom_level[static_cast<size_t>(v)] < level) {
            if (prefix.Contains(v)) {
              dbi.AddClause(Clause::Fact({v}));
            } else {
              dbi.AddClause(Clause::Integrity({v}));
            }
          }
        }
        MinimalEngine e(dbi, opts_.minimal_options());
        Partition p = Partition::MinimizeAll(db_.num_vars());
        e.EnumerateMinimalProjections(
            p, /*cap=*/-1, [&](const Interpretation& m) {
              if (++explored > opts_.max_candidates) {
                inner = Status::ResourceExhausted(
                    "strata iteration explored too many candidates");
                return false;
              }
              // The completion keeps the prefix and fixes this level.
              descend(level + 1, m);
              return inner.ok() &&
                     static_cast<int64_t>(out.size()) < cap;
            });
        if (inner.ok() && e.interrupted()) inner = e.interrupt_status();
      };
  descend(0, Interpretation(db_.num_vars()));
  DD_RETURN_IF_ERROR(inner);
  return out;
}

Result<bool> PerfSemantics::InfersFormula(const Formula& f) {
  DD_ASSIGN_OR_RETURN(std::optional<Interpretation> ce,
                      FindCounterexample(f));
  return !ce.has_value();
}

Result<std::optional<Interpretation>> PerfSemantics::FindCounterexample(
    const Formula& f) {
  DD_RETURN_IF_ERROR(CheckSupported());
  // Counterexample search among the minimal models (perfect ⊆ minimal).
  std::optional<Interpretation> out;
  Status inner = Status::OK();
  int64_t candidates = 0;
  engine_.EnumerateMinimalProjections(
      all_, /*cap=*/-1, [&](const Interpretation& m) {
        if (++candidates > opts_.max_candidates) {
          inner = Status::ResourceExhausted("too many minimal models");
          return false;
        }
        if (f->Eval(m)) return true;  // satisfies F: not a counterexample
        Result<bool> perfect = IsPerfect(m);
        if (!perfect.ok()) {
          inner = perfect.status();
          return false;
        }
        if (*perfect) {
          out = m;
          return false;
        }
        return true;
      });
  if (!inner.ok()) return inner;
  if (!out.has_value() && engine_.interrupted()) {
    // No counterexample found, but the enumeration was cut short: "no
    // counterexample" would wrongly report the formula as inferred.
    return engine_.interrupt_status();
  }
  return out;
}

Result<bool> PerfSemantics::HasModel() {
  DD_RETURN_IF_ERROR(CheckSupported());
  if (db_.IsPositive()) {
    // Without negation there are no strict priorities, PERF = MM, and a
    // positive DB always has minimal models — Table 1's O(1) entry.
    return true;
  }
  DD_ASSIGN_OR_RETURN(std::vector<Interpretation> ms, Models(1));
  return !ms.empty();
}

}  // namespace dd
