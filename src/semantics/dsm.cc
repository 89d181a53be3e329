#include "semantics/dsm.h"

#include "sat/solver.h"
#include "util/string_util.h"

namespace dd {

DsmSemantics::DsmSemantics(const Database& db, const SemanticsOptions& opts)
    : Semantics(db, opts), all_(Partition::MinimizeAll(db.num_vars())) {}

Result<bool> DsmSemantics::IsStable(const Interpretation& m) {
  if (!db_.Satisfies(m)) return false;
  Database reduct = db_.GlReduct(m);
  // m satisfies the reduct whenever it satisfies DB; stability is
  // minimality within the reduct. The reduct engine inherits the budget
  // through opts_.minimal_options().
  MinimalEngine re(reduct, opts_.minimal_options());
  bool stable = re.IsMinimal(m, all_);
  engine_.AbsorbStats(re.stats());
  if (re.interrupted()) return re.interrupt_status();
  return stable;
}

Status DsmSemantics::ForEachStable(
    const std::function<bool(const Interpretation&)>& visit) {
  if (!support_pruning_) {
    Status inner = Status::OK();
    int64_t candidates = 0;
    engine_.EnumerateMinimalProjections(
        all_, /*cap=*/-1, [&](const Interpretation& m) {
          if (++candidates > opts_.max_candidates) {
            inner = Status::ResourceExhausted(StrFormat(
                "DSM candidate search exceeded %lld minimal models",
                static_cast<long long>(opts_.max_candidates)));
            return false;
          }
          Result<bool> stable = IsStable(m);
          if (!stable.ok()) {
            inner = stable.status();
            return false;
          }
          if (*stable) return visit(m);
          return true;
        });
    if (engine_.interrupted()) return engine_.interrupt_status();
    return inner;
  }

  // Support-pruned search. Candidate solver: DB CNF + supportedness (every
  // stable model satisfies it, so no stable model is lost):
  //   a -> ∨_{rules r with a in head} y_{r,a}
  //   y_{r,a} -> pos body true, neg body false, other head atoms false.
  // Candidates found are minimized w.r.t. DB and region-blocked exactly as
  // in the unpruned enumeration; distinct minimal models are never
  // supersets of one another, so every stable model still surfaces.
  sat::Solver s;
  s.SetBudget(opts_.budget);
  s.EnsureVars(db_.num_vars());
  s.SetDefaultPolarity(false);
  for (const auto& cl : db_.ToCnf()) s.AddClause(cl);
  Var next = static_cast<Var>(db_.num_vars());
  std::vector<std::vector<Lit>> support(
      static_cast<size_t>(db_.num_vars()));
  for (const Clause& c : db_.clauses()) {
    for (Var a : c.heads()) {
      Var y = next++;
      s.EnsureVars(y + 1);
      for (Var b : c.pos_body()) s.AddBinary(Lit::Neg(y), Lit::Pos(b));
      for (Var neg : c.neg_body()) s.AddBinary(Lit::Neg(y), Lit::Neg(neg));
      for (Var h : c.heads()) {
        if (h != a) s.AddBinary(Lit::Neg(y), Lit::Neg(h));
      }
      support[static_cast<size_t>(a)].push_back(Lit::Pos(y));
    }
  }
  for (Var a = 0; a < db_.num_vars(); ++a) {
    std::vector<Lit> cl{Lit::Neg(a)};
    for (Lit y : support[static_cast<size_t>(a)]) cl.push_back(y);
    s.AddClause(std::move(cl));
  }

  int64_t candidates = 0;
  for (;;) {
    sat::SolveResult r = s.Solve();
    if (r == sat::SolveResult::kUnknown) {
      // Folding kUnknown into "no more candidates" would silently end the
      // stable-model search early and report wrong inferences.
      MinimalStats ms;
      ms.sat_calls = s.stats().solve_calls;
      engine_.AbsorbStats(ms);
      return BudgetOrUnknownStatus(opts_.budget,
                                   "DSM candidate oracle unknown");
    }
    if (r != sat::SolveResult::kSat) break;
    if (++candidates > opts_.max_candidates) {
      return Status::ResourceExhausted(
          StrFormat("DSM candidate search exceeded %lld candidates",
                    static_cast<long long>(opts_.max_candidates)));
    }
    Interpretation m = s.Model(db_.num_vars());
    Interpretation mm = engine_.Minimize(m, all_);
    if (engine_.interrupted()) {
      MinimalStats ms;
      ms.sat_calls = s.stats().solve_calls;
      engine_.AbsorbStats(ms);
      return engine_.interrupt_status();
    }
    DD_ASSIGN_OR_RETURN(bool stable, IsStable(mm));
    if (stable && !visit(mm)) break;
    // Block the region above mm (supersets can only be non-minimal).
    std::vector<Lit> block;
    for (Var v : mm.TrueAtoms()) block.push_back(Lit::Neg(v));
    if (block.empty()) break;  // the empty model's region is everything
    s.AddClause(std::move(block));
  }
  MinimalStats ms;
  ms.sat_calls = s.stats().solve_calls;
  engine_.AbsorbStats(ms);
  return Status::OK();
}

Result<std::vector<Interpretation>> DsmSemantics::Models(int64_t cap) {
  if (cap < 0) cap = opts_.max_models;
  std::vector<Interpretation> out;
  Status st = ForEachStable([&](const Interpretation& m) {
    out.push_back(m);
    return static_cast<int64_t>(out.size()) < cap;
  });
  if (!st.ok()) {
    // Anytime payload: every visited model passed the stability check, so
    // the collection is a sound (merely truncated) prefix.
    if (st.IsBudgetExhaustion()) partial_models_ = std::move(out);
    return st;
  }
  return out;
}

Result<bool> DsmSemantics::InfersFormula(const Formula& f) {
  DD_ASSIGN_OR_RETURN(std::optional<Interpretation> ce,
                      FindCounterexample(f));
  return !ce.has_value();
}

Result<std::optional<Interpretation>> DsmSemantics::FindCounterexample(
    const Formula& f) {
  std::optional<Interpretation> out;
  DD_RETURN_IF_ERROR(ForEachStable([&](const Interpretation& m) {
    if (!f->Eval(m)) {
      out = m;
      return false;
    }
    return true;
  }));
  return out;
}

Result<bool> DsmSemantics::HasModel() {
  if (db_.IsPositive()) return true;  // DSM = MM for positive DBs
  bool found = false;
  DD_RETURN_IF_ERROR(ForEachStable([&](const Interpretation&) {
    found = true;
    return false;
  }));
  return found;
}

}  // namespace dd
