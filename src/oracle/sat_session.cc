#include "oracle/sat_session.h"

#include <utility>

namespace dd {
namespace oracle {

SatSession::SatSession(const Database& db) : base_vars_(db.num_vars()) {
  solver_.EnsureVars(base_vars_);
  // Prefer-false polarity makes the first model found already small, which
  // shortens every minimization loop run through the session.
  solver_.SetDefaultPolarity(false);
  for (const auto& cl : db.ToCnf()) {
    solver_.AddClause(cl.data(), cl.size());
  }
  next_var_ = static_cast<Var>(solver_.num_vars());
  if (next_var_ < base_vars_) next_var_ = base_vars_;
  ++stats_.base_loads;
}

Var SatSession::AllocVar() {
  Var v = next_var_++;
  solver_.EnsureVars(v + 1);
  return v;
}

void SatSession::ReserveVars(Var next) {
  if (next > next_var_) {
    next_var_ = next;
    solver_.EnsureVars(next);
  }
}

sat::SolveResult SatSession::Solve(const std::vector<Lit>& assumptions) {
  ++stats_.solves;
  return solver_.Solve(assumptions);
}

SatSession::Context::Context(SatSession* session) : session_(session) {
  act_ = session_->AllocVar();
  ++session_->stats_.contexts_opened;
}

SatSession::Context::~Context() {
  if (keep_) return;
  // Retract: ¬act permanently satisfies every clause of the group (and
  // every learnt clause that depended on one, since those contain ¬act).
  //
  // Beyond the group's clauses, pin *every variable allocated during this
  // context's window* [act, next_var) false at level 0. Those variables
  // (selectors, Tseitin auxiliaries) occur only in guarded clauses that the
  // retraction just satisfied, so they are unconstrained — but a CDCL model
  // is a total assignment, so left free each of them would cost every later
  // Solve() a decision forever. Pinning keeps the per-solve search effort
  // proportional to the *live* variables, not to session history.
  //
  // Sound because allocation is monotone (dead variables are never reused)
  // and context lifetimes nest: groups opened inside this window were
  // retired (and pinned, harmlessly re-pinned here) before this one, and
  // kept groups (enumeration streams) are only ever created outside any
  // retiring window — see the header contract.
  Var end = session_->next_var_;
  for (Var v = act_; v < end; ++v) {
    session_->solver_.AddUnit(Lit::Neg(v));
  }
  ++session_->stats_.contexts_retired;
}

void SatSession::Context::Retract() {
  session_->solver_.AddUnit(Lit::Neg(act_));
  ++session_->stats_.contexts_retired;
}

void SatSession::Context::AddClause(std::vector<Lit> lits) {
  AddClause(lits.data(), lits.size());
}

void SatSession::Context::AddClause(const Lit* lits, size_t n) {
  scratch_.clear();
  scratch_.reserve(n + 1);
  scratch_.push_back(Lit::Neg(act_));
  scratch_.insert(scratch_.end(), lits, lits + n);
  session_->solver_.AddClause(scratch_.data(), scratch_.size());
  ++session_->stats_.guarded_clauses;
}

sat::SolveResult SatSession::Context::Solve(
    const std::vector<Lit>& extra_assumptions) {
  scratch_.clear();
  scratch_.reserve(extra_assumptions.size() + 1);
  scratch_.push_back(activation());
  scratch_.insert(scratch_.end(), extra_assumptions.begin(),
                  extra_assumptions.end());
  return session_->Solve(scratch_);
}

}  // namespace oracle
}  // namespace dd
