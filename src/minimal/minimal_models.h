// Minimal-model reasoning over a SAT oracle.
//
// This module realizes the oracle structure of the paper's membership
// proofs: a minimality check is one NP-oracle (SAT) call, a model is
// minimized with at most |P| calls, and the Π₂ᵖ inference tasks run a
// counterexample-guided loop whose every step is an oracle call.
//
// All operations work relative to a partition <P;Q;Z> (minimal/pqz.h);
// classical minimal models are the P = V case.
//
// A key structural fact exploited throughout: whether a model M is
// <P;Z>-minimal depends only on its (P,Q)-projection, because the preorder
// ignores Z entirely. Enumeration therefore proceeds over minimal
// *projections*, with Z-completions re-attached on demand.
//
// Oracle sessions (src/oracle/): by default the engine owns ONE persistent
// incremental solver for its database. Base clauses are loaded once;
// each oracle call runs in an activation-guarded context that is retracted
// afterwards; minimality verdicts/certificates are memoized on (P,Q)
// projections; and minimal-projection enumeration keeps its blocking
// clauses alive between calls so repeated Σ₂ᵖ oracle invocations replay
// instead of recompute. MinimalOptions{use_sessions=false} runs the same
// algorithms — every operation has one body, written over Query — with a
// dedicated solver per query and no memos (the benches' --no-sessions A/B
// baseline); answers are identical in both modes. See docs/ORACLE.md.
#ifndef DD_MINIMAL_MINIMAL_MODELS_H_
#define DD_MINIMAL_MINIMAL_MODELS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/certifier.h"
#include "logic/database.h"
#include "logic/formula.h"
#include "logic/interpretation.h"
#include "minimal/pqz.h"
#include "obs/trace.h"
#include "oracle/minimality_cache.h"
#include "oracle/projection_store.h"
#include "oracle/sat_session.h"
#include "sat/solver.h"
#include "util/budget.h"
#include "util/status.h"

namespace dd {

/// Counters for the oracle-call accounting the benches report.
///
/// sat_calls counts solver invocations actually performed: in session mode
/// it DROPS when memoization answers a call, which is exactly the effect
/// the benches measure. The paper-level oracle structure (the Σ₂ᵖ call
/// counts of the counting algorithm, CEGAR iteration structure) is counted
/// by the callers and is identical in both modes.
struct MinimalStats {
  int64_t sat_calls = 0;        ///< NP-oracle invocations
  int64_t minimizations = 0;    ///< model-minimization loops run
  int64_t cegar_iterations = 0; ///< refinement steps in entailment loops
  int64_t models_enumerated = 0;
  int64_t hcf_checks = 0;       ///< polynomial founded-fixpoint checks that
                                ///< replaced a minimality oracle call

  void Add(const MinimalStats& o) {
    sat_calls += o.sat_calls;
    minimizations += o.minimizations;
    cegar_iterations += o.cegar_iterations;
    models_enumerated += o.models_enumerated;
    hcf_checks += o.hcf_checks;
  }
  void Sub(const MinimalStats& o) {
    sat_calls -= o.sat_calls;
    minimizations -= o.minimizations;
    cegar_iterations -= o.cegar_iterations;
    models_enumerated -= o.models_enumerated;
    hcf_checks -= o.hcf_checks;
  }
};

/// Engine-level tuning.
struct MinimalOptions {
  /// Route oracle calls through one persistent incremental session
  /// (src/oracle/sat_session.h) instead of a dedicated solver per query.
  bool use_sessions = true;

  /// Shared query budget (deadline / conflict / oracle-call limits); null
  /// means unbudgeted. Attached to every solver the engine creates —
  /// session or fresh — and inherited by chunk-local and helper engines
  /// built from these options. See util/budget.h and docs/ROBUSTNESS.md.
  std::shared_ptr<Budget> budget;

  /// Answer minimality checks and minimizations through the polynomial
  /// founded-fixpoint test (minimal/hcf.h) instead of the SAT oracle. The
  /// engine self-verifies applicability per call: the path engages only
  /// when ITS database is deductive and head-cycle-free and the partition
  /// minimizes everything — so the flag is safe to inherit into helper
  /// engines (GL reducts, stratum slices) that run on derived databases.
  /// Off by default: the analyzer-driven Reasoner enables it per database
  /// (EnginePath::kHcfUnfounded), keeping the baselines' oracle-call
  /// accounting untouched.
  bool hcf_minimality = false;

  /// When non-null (and hcf_minimality engaged), every polynomial verdict
  /// appends a machine-checkable witness here: a founded order for
  /// "minimal", a strictly smaller model for "not minimal"
  /// (analysis/certifier.h). Not thread-safe: AreMinimal's chunk engines
  /// run with the sink detached.
  std::vector<analysis::Certificate>* hcf_certificates = nullptr;

  /// Entry cap for the minimality-verdict/certificate memo
  /// (oracle/minimality_cache.h); <= 0 means unbounded. FIFO eviction;
  /// evictions only cost recomputation, never answers. The default is
  /// generous — the cap exists so long-lived batch servers cannot leak.
  int64_t oracle_cache_cap = 1 << 20;

  /// Cap on live memoized projection streams (oracle/projection_store.h);
  /// <= 0 means unbounded. LRU eviction; an evicted partition re-enumerates
  /// deterministically from scratch on next use.
  int64_t projection_stream_cap = 64;

  /// Fast path for FreeAtoms(): a P-atom is free exactly when some minimal
  /// projection contains it, so the engine first replays/extends the
  /// (memoized) projection stream up to this many projections. A complete
  /// enumeration settles every P-atom with no per-atom oracle loop; a
  /// capped one still settles the atoms it saw and the per-atom witness
  /// loop finishes the rest, keeping worst-case behavior. <= 0 disables
  /// the fast path.
  int64_t free_atoms_enum_cap = 64;

  /// Optional query trace (not owned; null = tracing off, zero overhead).
  /// When set, every outermost public engine operation opens one
  /// "minimal"-layer span carrying the counter deltas it caused
  /// (oracle_calls, minimizations, cegar_iterations, models_enumerated)
  /// plus an "oracle"-layer child span with the session/cache activity it
  /// triggered. Chunk-local engines in AreMinimal always run untraced so
  /// the span tree is identical for every thread count. See obs/trace.h
  /// and docs/OBSERVABILITY.md.
  obs::TraceContext* trace = nullptr;
};

/// Minimal-model engine for one database.
///
/// The engine is semantically stateless between calls — session state
/// (learnt clauses, memoized verdicts, enumeration prefixes) only changes
/// performance, never answers. Not thread-safe; parallel helpers
/// (AreMinimal) spawn chunk-local engines and merge deterministically.
class MinimalEngine {
 public:
  explicit MinimalEngine(const Database& db, const MinimalOptions& opts = {});

  const Database& db() const { return db_; }
  const MinimalStats& stats() const { return stats_; }
  void ResetStats() { stats_ = MinimalStats(); }
  /// Folds another engine's counters into this one (used when a semantics
  /// spawns helper engines, e.g. per-reduct stability checks).
  void AbsorbStats(const MinimalStats& s) { stats_.Add(s); }

  // --- Budget / interrupt protocol -----------------------------------------
  //
  // When an oracle call reports kUnknown (budget exhaustion or fault
  // injection), the engine latches an *interrupt*: every boolean/model
  // return value produced at or after that point is a conservative
  // placeholder with NO semantic meaning, and callers MUST check
  // interrupted() after any engine call and discard the value, propagating
  // interrupt_status() instead. This keeps "Unknown" from ever silently
  // turning into a wrong yes/no (see docs/ROBUSTNESS.md). While
  // interrupted, further operations return immediately; caches, memoized
  // streams and session state are never updated from interrupted
  // computations, so a later retry (after ClearInterrupt/SetBudget) resumes
  // from sound memoized prefixes only.

  /// Attaches a shared query budget (nullptr detaches) to this engine and
  /// its solvers, and clears any latched interrupt.
  void SetBudget(std::shared_ptr<Budget> budget);
  const std::shared_ptr<Budget>& budget() const { return opts_.budget; }

  /// Attaches (nullptr detaches) a query trace. Must not be called while
  /// an engine operation is in flight.
  void SetTrace(obs::TraceContext* trace) { opts_.trace = trace; }
  obs::TraceContext* trace() const { return opts_.trace; }

  /// True once any oracle call failed to produce an answer.
  bool interrupted() const { return interrupted_; }
  /// The Status to propagate (kDeadlineExceeded / kResourceExhausted).
  /// OK iff !interrupted().
  const Status& interrupt_status() const { return interrupt_status_; }
  /// Re-arms the engine after an interrupt (e.g. for a retry with a fresh
  /// budget). Memoized state is untouched — it was never poisoned.
  void ClearInterrupt() {
    interrupted_ = false;
    interrupt_status_ = Status::OK();
  }

  /// Session-reuse accounting (zeroed in fresh-solver mode).
  oracle::SessionStats session_stats() const;

  /// Classical satisfiability of the database (one SAT call; memoized in
  /// session mode).
  bool HasModel();

  /// Some classical model, if any.
  std::optional<Interpretation> FindModel();

  /// Is `m` a model of the database?
  bool IsModel(const Interpretation& m) const { return db_.Satisfies(m); }

  /// Is `m` a <P;Z>-minimal model? One SAT call (plus the model check);
  /// memoized on the (P,Q)-projection in session mode.
  bool IsMinimal(const Interpretation& m, const Partition& pqz);

  /// Shrinks model `m` to a <P;Z>-minimal model below it (P-part only ever
  /// shrinks; the Q-part is preserved; Z floats). At most |P|+1 SAT calls;
  /// memoized on the (P,Q)-projection in session mode.
  Interpretation Minimize(const Interpretation& m, const Partition& pqz);

  /// Per-candidate minimality checks in bulk: verdicts[i] == IsMinimal
  /// (candidates[i], pqz), computed on up to `threads` workers with
  /// chunk-local engines. The verdict vector is bit-identical for every
  /// thread count; chunk statistics are folded into stats() in chunk
  /// order.
  std::vector<bool> AreMinimal(const std::vector<Interpretation>& candidates,
                               const Partition& pqz, int threads = 1);

  /// Enumerates one representative model per <P;Z>-minimal projection,
  /// invoking `cb`. Stops early if `cb` returns false or after `cap`
  /// models (cap < 0 = unlimited). Returns the number emitted. In session
  /// mode the projection stream is memoized: repeated calls replay the
  /// known prefix without SAT calls and resume discovery incrementally.
  int EnumerateMinimalProjections(
      const Partition& pqz, int64_t cap,
      const std::function<bool(const Interpretation&)>& cb);

  /// A shared handle on `pqz`'s memoized projection stream, iff session
  /// mode is on and the stream exists and is EXHAUSTED (so the vector is
  /// frozen — exhausted streams never mutate). Null otherwise. Lets a
  /// semantics whose model set IS a projection stream (EGCWA) export it
  /// to the batch layer's model banks without re-materializing: the
  /// stream, the bank and the bank store then all alias one copy, and
  /// stream eviction merely drops this store's reference.
  std::shared_ptr<const std::vector<Interpretation>>
  SharedExhaustedProjections(const Partition& pqz);

  /// Enumerates *all* <P;Z>-minimal models, i.e. every Z-completion of
  /// every minimal projection. Exponential in |Z| in the worst case; used
  /// by cross-checks and small-instance tooling.
  int EnumerateAllMinimalModels(
      const Partition& pqz, int64_t cap,
      const std::function<bool(const Interpretation&)>& cb);

  /// Decides MM(DB;P;Z) |= F: is the formula true in every <P;Z>-minimal
  /// model? (Π₂ᵖ; counterexample-guided.) Vacuously true if DB has no model.
  /// On a negative answer, `counterexample` (if non-null) receives a
  /// <P;Z>-minimal model violating F.
  bool MinimalEntails(const Formula& f, const Partition& pqz,
                      Interpretation* counterexample = nullptr);

  /// Decides whether some <P;Z>-minimal model satisfies `lit`
  /// (the Σ₂ᵖ building block of GCWA/CCWA: "is atom x free?").
  /// On success, `*witness` (if non-null) receives such a minimal model.
  bool ExistsMinimalModelWith(Lit lit, const Partition& pqz,
                              Interpretation* witness = nullptr);

  /// The atoms of P that are true in at least one <P;Z>-minimal model.
  /// GCWA/CCWA add ¬x exactly for the P-atoms outside this set.
  Interpretation FreeAtoms(const Partition& pqz);

  /// One classical oracle call over DB plus query-scoped clauses/units,
  /// mode-transparent: in session mode it is an activation-guarded context
  /// on the engine's persistent solver; in fresh mode it is a dedicated
  /// solver pre-loaded with the database. Every engine operation runs its
  /// oracle calls through it, and so do the CWA-family semantics and
  /// UMINSAT, whose oracle calls are "DB plus a few extras".
  class Query {
   public:
    explicit Query(MinimalEngine* engine);
    ~Query() = default;
    Query(const Query&) = delete;
    Query& operator=(const Query&) = delete;

    /// Adds a query-scoped clause.
    void AddClause(std::vector<Lit> lits);
    /// Adds a query-scoped unit (session mode: solved as an assumption).
    void AddUnit(Lit l);
    /// First variable above everything allocated so far (Tseitin base).
    Var NextVar() const;
    /// Registers externally allocated variables up to `next`.
    void ReserveVars(Var next);
    /// Allocates one fresh variable (e.g. a clause selector).
    Var AllocVar();
    /// Solves DB ∪ scoped clauses ∪ scoped units under extra assumptions.
    /// Counts one NP-oracle call in the engine's stats.
    sat::SolveResult Solve(const std::vector<Lit>& extra_assumptions = {});
    Interpretation Model(int n) const;

   private:
    friend class MinimalEngine;
    /// Session mode: runs inside `ctx`, a caller-owned context that outlives
    /// the query (a memoized projection stream's), or on the bare session
    /// when `ctx` is null (no clauses may be added then). Fresh mode
    /// ignores `ctx` and loads a dedicated solver as always.
    Query(MinimalEngine* engine, oracle::SatSession::Context* ctx);

    MinimalEngine* engine_;
    std::optional<oracle::SatSession::Context> own_ctx_;
    oracle::SatSession::Context* ctx_;    // session mode; null = bare session
    std::unique_ptr<sat::Solver> fresh_;  // fresh mode
    std::vector<Lit> units_;        // session mode: assumption units
    std::vector<Lit> assumptions_;  // reusable solve buffer
  };

 private:
  friend class Query;

  /// RAII scope for one public engine operation. When a trace is attached
  /// and this is the outermost operation (re-entrant calls — e.g.
  /// EnumerateAllMinimalModels → EnumerateMinimalProjections → Minimize —
  /// fold into the outer scope), it opens a "minimal"-layer span and, at
  /// close, attributes the MinimalStats deltas the operation caused plus
  /// an "oracle"-layer child span with the session activity it triggered.
  class OpScope {
   public:
    OpScope(MinimalEngine* e, const char* name);
    ~OpScope();
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    MinimalEngine* e_;
    bool counted_ = false;  ///< incremented op_depth_ (trace was attached)
    bool active_ = false;   ///< outermost: owns a span
    int span_ = -1;
    MinimalStats before_;
    oracle::SessionStats sess_before_;
  };

  /// The engine's session, created on first use (nullptr when sessions are
  /// disabled, which is how Query picks its solver).
  oracle::SatSession* session();

  /// Latches the interrupt flag and derives interrupt_status_ from the
  /// budget (or a generic ResourceExhausted for injected faults).
  void MarkInterrupted();

  // --- Polynomial HCF fast path (minimal/hcf.h) ---------------------------
  /// True iff opts_.hcf_minimality is set, pqz minimizes everything, and
  /// this engine's database is deductive + head-cycle-free (memoized).
  bool HcfEligible(const Partition& pqz);
  /// SCC ids of the positive no-head-link dependency graph (memoized).
  const std::vector<int>& PosSccIds();
  /// Polynomial IsMinimal; nullopt = not eligible, fall through to oracle.
  std::optional<bool> TryHcfIsMinimal(const Interpretation& m,
                                      const Partition& pqz);
  /// Polynomial Minimize; nullopt = not eligible.
  std::optional<Interpretation> TryHcfMinimize(const Interpretation& m,
                                               const Partition& pqz);

  Database db_;
  MinimalOptions opts_;
  MinimalStats stats_;
  int op_depth_ = 0;  ///< re-entrancy depth of public ops (OpScope)
  bool interrupted_ = false;
  Status interrupt_status_;

  // Session state (null/empty in fresh mode).
  std::unique_ptr<oracle::SatSession> session_;
  oracle::MinimalityCache cache_;
  oracle::ProjectionStore proj_store_;
  std::optional<bool> has_model_;
  Interpretation found_model_;
  int64_t memo_hits_ = 0;

  // HCF fast-path memos (valid for the lifetime of db_).
  std::optional<bool> hcf_applicable_;
  std::optional<std::vector<int>> pos_scc_;
};

}  // namespace dd

#endif  // DD_MINIMAL_MINIMAL_MODELS_H_
