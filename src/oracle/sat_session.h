// Persistent incremental NP-oracle sessions.
//
// Every membership algorithm in the paper is "polynomial time with an
// NP (or Σ₂ᵖ) oracle", and a single query drives thousands of oracle
// calls over ONE fixed database. Historically each call built a fresh
// sat::Solver and re-loaded the same CNF; a SatSession instead owns one
// incremental solver per Database, loads the base clauses exactly once,
// and serves every subsequent oracle call through activation-literal
// scoped contexts:
//
//   * base clauses            — loaded once, never touched again
//   * query-specific clauses  — added as (¬act ∨ C) under a fresh
//                               activation variable `act`; the query
//                               solves under the assumption `act`
//   * retraction              — the context's destructor asserts the unit
//                               ¬act, permanently satisfying (and thereby
//                               disabling) every clause of the group
//
// Soundness: CDCL learnt clauses are resolvents of existing clauses, so
// any learnt clause depending on a guarded clause contains ¬act itself and
// dies with the group. Learnt clauses over base clauses survive and are
// the mechanism by which later oracle calls get faster. See docs/ORACLE.md
// for the full protocol and the cache-soundness argument.
#ifndef DD_ORACLE_SAT_SESSION_H_
#define DD_ORACLE_SAT_SESSION_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "logic/database.h"
#include "logic/interpretation.h"
#include "logic/types.h"
#include "sat/solver.h"
#include "util/budget.h"

namespace dd {
namespace oracle {

/// Cumulative reuse accounting for one session (and, via Add, for a whole
/// engine). Complements MinimalStats: MinimalStats counts the *semantic*
/// oracle work, SessionStats shows how much of it was served from reuse.
struct SessionStats {
  int64_t base_loads = 0;         ///< databases loaded (1 per session)
  int64_t solves = 0;             ///< Solve() calls routed through sessions
  int64_t contexts_opened = 0;    ///< activation groups created
  int64_t contexts_retired = 0;   ///< groups retracted via ¬act
  int64_t guarded_clauses = 0;    ///< query clauses added under guards
  int64_t cache_hits = 0;         ///< oracle answers served from memo
  int64_t cache_misses = 0;       ///< oracle answers actually computed
  int64_t projections_replayed = 0;    ///< minimal projections from memo
  int64_t projections_discovered = 0;  ///< minimal projections computed
  int64_t cache_evictions = 0;  ///< memo entries / streams dropped at cap

  void Add(const SessionStats& o) {
    base_loads += o.base_loads;
    solves += o.solves;
    contexts_opened += o.contexts_opened;
    contexts_retired += o.contexts_retired;
    guarded_clauses += o.guarded_clauses;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    projections_replayed += o.projections_replayed;
    projections_discovered += o.projections_discovered;
    cache_evictions += o.cache_evictions;
  }
  void Sub(const SessionStats& o) {
    base_loads -= o.base_loads;
    solves -= o.solves;
    contexts_opened -= o.contexts_opened;
    contexts_retired -= o.contexts_retired;
    guarded_clauses -= o.guarded_clauses;
    cache_hits -= o.cache_hits;
    cache_misses -= o.cache_misses;
    projections_replayed -= o.projections_replayed;
    projections_discovered -= o.projections_discovered;
    cache_evictions -= o.cache_evictions;
  }
};

/// One persistent incremental solver bound to one Database.
///
/// Not thread-safe: parallel callers use one session (or one fresh engine)
/// per thread and merge results in task order.
class SatSession {
 public:
  /// Loads the database CNF once (prefer-false polarity, the right default
  /// for minimization work).
  explicit SatSession(const Database& db);

  int base_vars() const { return base_vars_; }

  /// Current variable high-water mark (base + activations + Tseitin).
  Var next_var() const { return next_var_; }

  /// Allocates one fresh variable above everything handed out so far.
  Var AllocVar();

  /// Registers externally allocated variables (e.g. a Tseitin encoder ran
  /// with a Var counter seeded from next_var()): bumps the high-water mark
  /// to `next` and grows the solver.
  void ReserveVars(Var next);

  /// Solves against the base clauses only (plus any still-live guarded
  /// groups, which are inactive without their activation assumptions).
  sat::SolveResult Solve(const std::vector<Lit>& assumptions = {});

  /// Attaches a shared query budget to the underlying solver (nullptr
  /// detaches). Budgeted solves report kUnknown on exhaustion; callers
  /// must treat that as "no answer", never as UNSAT.
  void SetBudget(std::shared_ptr<Budget> budget) {
    solver_.SetBudget(std::move(budget));
  }

  /// The satisfying assignment restricted to [0, n) after a kSat Solve.
  Interpretation Model(int n) const { return solver_.Model(n); }

  sat::Solver& solver() { return solver_; }
  SessionStats& stats() { return stats_; }
  const SessionStats& stats() const { return stats_; }

  /// An activation-guarded clause group: the RAII unit of one oracle call.
  ///
  /// Clauses added through the context receive the guard ¬act; Solve()
  /// assumes `act` (plus caller assumptions). Destruction retracts the
  /// group with the unit ¬act unless Keep() was called (persistent groups,
  /// e.g. the blocking clauses of a memoized enumeration stream).
  ///
  /// Lifetime contract: contexts nest LIFO — a context opened while another
  /// is alive is destroyed first — and Keep()-groups are only created while
  /// no retiring context is alive. Under that discipline retraction also
  /// pins the context's whole variable window [act, next_var) false: those
  /// auxiliaries (selectors, Tseitin variables) are unconstrained once
  /// their guarded clauses die, and pinning them keeps later solves from
  /// spending a decision per dead variable for the rest of the session.
  class Context {
   public:
    explicit Context(SatSession* session);
    ~Context();

    Context(const Context&) = delete;
    Context& operator=(const Context&) = delete;

    Lit activation() const { return Lit::Pos(act_); }

    /// Adds (¬act ∨ lits).
    void AddClause(std::vector<Lit> lits);
    void AddClause(const Lit* lits, size_t n);
    void AddUnit(Lit l) { AddClause({l}); }

    /// Solves under {act} ∪ extra_assumptions.
    sat::SolveResult Solve(const std::vector<Lit>& extra_assumptions = {});

    Interpretation Model(int n) const { return session_->Model(n); }

    /// Leaves the group live after destruction (no ¬act retraction); the
    /// group then only constrains solves that assume its activation.
    void Keep() { keep_ = true; }

    /// Retires a kept group by its activation alone: the unit ¬act
    /// satisfies its clauses for good and fixes its activation variable.
    /// No variable window is pinned — a kept group's window holds the
    /// variables of contexts opened after it, which may still be live.
    void Retract();

   private:
    SatSession* session_;
    Var act_;
    bool keep_ = false;
    std::vector<Lit> scratch_;  // reusable guarded-clause buffer
  };

 private:
  sat::Solver solver_;
  int base_vars_;
  Var next_var_;
  SessionStats stats_;
};

}  // namespace oracle
}  // namespace dd

#endif  // DD_ORACLE_SAT_SESSION_H_
