#include "semantics/closed_world_base.h"

#include <utility>

#include "sat/solver.h"
#include "util/string_util.h"

namespace dd {

Result<Interpretation> ClosedWorldSemantics::NegatedAtoms() {
  if (!negs_.has_value()) {
    DD_ASSIGN_OR_RETURN(Interpretation n, ComputeNegatedAtoms());
    negs_ = std::move(n);
  }
  return *negs_;
}

Result<bool> ClosedWorldSemantics::InfersFormula(const Formula& f) {
  DD_ASSIGN_OR_RETURN(Interpretation negs, NegatedAtoms());
  // One oracle call on DB ∪ N ∪ Tseitin(¬F): mode-transparently either a
  // guarded context on the engine's session or a dedicated solver.
  MinimalEngine::Query q(&engine_);
  for (Var v : negs.TrueAtoms()) q.AddUnit(Lit::Neg(v));
  Var next = q.NextVar();
  std::vector<std::vector<Lit>> fcnf;
  Lit fl = TseitinEncode(f, &next, &fcnf);
  q.ReserveVars(next);
  for (auto& cl : fcnf) q.AddClause(std::move(cl));
  q.AddUnit(~fl);
  sat::SolveResult r = q.Solve();
  if (engine_.interrupted()) {
    // kUnknown must not be read as UNSAT ("inferred"): degrade to Status.
    return engine_.interrupt_status();
  }
  return r == sat::SolveResult::kUnsat;
}

Result<std::optional<Interpretation>> ClosedWorldSemantics::FindCounterexample(
    const Formula& f) {
  DD_ASSIGN_OR_RETURN(Interpretation negs, NegatedAtoms());
  MinimalEngine::Query q(&engine_);
  for (Var v : negs.TrueAtoms()) q.AddUnit(Lit::Neg(v));
  Var next = q.NextVar();
  std::vector<std::vector<Lit>> fcnf;
  Lit fl = TseitinEncode(f, &next, &fcnf);
  q.ReserveVars(next);
  for (auto& cl : fcnf) q.AddClause(std::move(cl));
  q.AddUnit(~fl);
  sat::SolveResult r = q.Solve();
  if (engine_.interrupted()) return engine_.interrupt_status();
  if (r != sat::SolveResult::kSat) {
    return std::optional<Interpretation>();
  }
  return std::optional<Interpretation>(q.Model(db_.num_vars()));
}

Result<bool> ClosedWorldSemantics::HasModel() {
  DD_ASSIGN_OR_RETURN(Interpretation negs, NegatedAtoms());
  MinimalEngine::Query q(&engine_);
  for (Var v : negs.TrueAtoms()) q.AddUnit(Lit::Neg(v));
  sat::SolveResult r = q.Solve();
  if (engine_.interrupted()) return engine_.interrupt_status();
  return r == sat::SolveResult::kSat;
}

Result<std::vector<Interpretation>> ClosedWorldSemantics::Models(
    int64_t cap) {
  if (cap < 0) cap = opts_.max_models;
  DD_ASSIGN_OR_RETURN(Interpretation negs, NegatedAtoms());
  MinimalEngine::Query q(&engine_);
  for (Var v : negs.TrueAtoms()) q.AddUnit(Lit::Neg(v));

  std::vector<Interpretation> out;
  for (;;) {
    sat::SolveResult r = q.Solve();
    if (engine_.interrupted()) {
      // Anytime payload: everything collected so far IS a model of DB ∪ N;
      // the enumeration is merely truncated.
      partial_models_ = std::move(out);
      return engine_.interrupt_status();
    }
    if (r != sat::SolveResult::kSat) break;
    Interpretation m = q.Model(db_.num_vars());
    out.push_back(m);
    if (static_cast<int64_t>(out.size()) > cap) {
      partial_models_ = std::move(out);
      return Status::ResourceExhausted(
          StrFormat("more than %lld models", static_cast<long long>(cap)));
    }
    // Exclude exactly m.
    std::vector<Lit> block;
    for (Var v = 0; v < db_.num_vars(); ++v) {
      block.push_back(m.Contains(v) ? Lit::Neg(v) : Lit::Pos(v));
    }
    if (block.empty()) break;
    q.AddClause(std::move(block));
  }
  return out;
}

}  // namespace dd
