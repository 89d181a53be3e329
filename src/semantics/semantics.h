// The common interface of the paper's database semantics.
//
// Every semantics assigns a database DB a set of "intended" models (for
// PDSM, three-valued ones). The three decision problems the paper studies
// are exposed uniformly:
//
//   InfersLiteral(l)  - is l true in every intended model?
//   InfersFormula(F)  - is F true in every intended model?
//   HasModel()        - is the intended-model set nonempty?
//
// Implementations are algorithm-faithful to the paper's membership proofs:
// their oracle structure (SAT calls, CEGAR refinements) is counted by the
// MinimalEngine the base class owns and reported through stats() and
// ReportNewWork().
#ifndef DD_SEMANTICS_SEMANTICS_H_
#define DD_SEMANTICS_SEMANTICS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "logic/database.h"
#include "logic/formula.h"
#include "logic/interpretation.h"
#include "minimal/minimal_models.h"
#include "obs/trace.h"
#include "util/status.h"

namespace dd {

/// Tuning knobs shared by all semantics.
struct SemanticsOptions {
  /// Upper bound on models returned by Models().
  int64_t max_models = 1000000;
  /// Upper bound on candidate interpretations examined by enumeration-based
  /// procedures (PWS splits, PERF/DSM candidate loops, PDSM bit models).
  /// Exceeding it yields ResourceExhausted rather than a wrong answer.
  int64_t max_candidates = 1000000;
  /// PWS: compute the possible-atom set through the SAT encoding
  /// (semantics/pws_encoding.h) instead of split enumeration. One NP-oracle
  /// call per undecided atom; immune to split blowup.
  bool pws_use_sat_encoding = false;
  /// Reasoner: route queries through the static-analysis dispatch layer
  /// (analysis/dispatch.h), which downgrades to polynomial engines when
  /// ProgramProperties proves the input easy (Tables 1/2). Answers are
  /// identical to the generic path; off forces the generic engines.
  bool analysis_dispatch = true;
  /// Route NP-oracle calls through one persistent incremental session per
  /// database (src/oracle/sat_session.h) instead of a dedicated solver per
  /// query. Answers are identical in both modes; off runs the same
  /// algorithms without the session's memos (the benches' --no-sessions
  /// A/B leg, docs/ORACLE.md).
  bool use_sessions = true;
  /// Worker threads for the parallel helpers (bulk minimality checks, DDR
  /// expansion rounds, PWS split scanning). Results are bit-identical for
  /// every value; <= 1 runs serially on the calling thread.
  int num_threads = 1;
  /// Shared query budget (deadline / global conflict / oracle-call limits);
  /// null = unbudgeted. Inherited by every engine and solver the semantics
  /// creates. Exhaustion surfaces as kDeadlineExceeded/kResourceExhausted —
  /// answers degrade to Unknown, never to a wrong yes/no. Installed
  /// per-query via Semantics::SetBudget (see core/Reasoner's QueryOptions).
  std::shared_ptr<Budget> budget;

  /// Answer minimality checks through the polynomial founded-fixpoint test
  /// when the engine's database is deductive and head-cycle-free
  /// (minimal/hcf.h; EnginePath::kHcfUnfounded). Inherited by every owned
  /// and helper MinimalEngine, each of which re-verifies applicability on
  /// its own (possibly derived) database. Off by default; the Reasoner
  /// enables it on dedicated engine instances so baseline oracle-call
  /// accounting is untouched.
  bool hcf_minimality = false;

  /// Certificate sink for the HCF fast path (see MinimalOptions); not
  /// owned, may be null. Set by the Reasoner in --certify mode only.
  std::vector<analysis::Certificate>* hcf_certificates = nullptr;

  /// Entry cap for each engine's minimality memo and cap on its live
  /// memoized projection streams (see MinimalOptions; <= 0 = unbounded).
  /// Evictions cost recomputation only and are counted in
  /// SessionStats::cache_evictions (dd.oracle.cache_evictions).
  int64_t oracle_cache_cap = 1 << 20;
  int64_t projection_stream_cap = 64;

  /// The engine-level tuning derived from these options.
  MinimalOptions minimal_options() const {
    MinimalOptions mo;
    mo.use_sessions = use_sessions;
    mo.budget = budget;
    mo.hcf_minimality = hcf_minimality;
    mo.hcf_certificates = hcf_certificates;
    mo.oracle_cache_cap = oracle_cache_cap;
    mo.projection_stream_cap = projection_stream_cap;
    return mo;
  }
};

/// Identifier for each implemented semantics.
enum class SemanticsKind {
  kCwa,  ///< Reiter's CWA (baseline the paper departs from)
  kGcwa,
  kEgcwa,
  kCcwa,
  kEcwa,  ///< identical to propositional circumscription (CIRC)
  kDdr,   ///< identical to WGCWA
  kPws,   ///< identical to PMS
  kPerf,
  kIcwa,
  kDsm,
  kPdsm,
};

/// Short uppercase name ("GCWA", ...).
const char* SemanticsKindName(SemanticsKind k);

/// Parses a (case-insensitive) semantics name, accepting the paper's
/// aliases: "circ" = ECWA, "wgcwa" = DDR, "pms" = PWS. This is the one
/// name table the CLI shells, the --batch/.queries parser and the serve
/// protocol all share. Returns nullopt for unknown names.
std::optional<SemanticsKind> SemanticsKindFromName(std::string_view name);

/// Abstract base for all semantics.
class Semantics {
 public:
  virtual ~Semantics() = default;

  virtual SemanticsKind kind() const = 0;
  std::string name() const { return SemanticsKindName(kind()); }

  /// Skeptical inference of a propositional formula.
  virtual Result<bool> InfersFormula(const Formula& f) = 0;

  /// Skeptical inference of a literal. Default delegates to InfersFormula;
  /// semantics with cheaper literal paths (DDR, PWS, GCWA) override it.
  virtual Result<bool> InfersLiteral(Lit l);

  /// Does the database possess a model under this semantics?
  virtual Result<bool> HasModel() = 0;

  /// The intended two-valued models, up to `cap` (< 0: options cap).
  /// PDSM overrides the three-valued variant instead and reports its total
  /// stable models here.
  virtual Result<std::vector<Interpretation>> Models(int64_t cap = -1) = 0;

  /// Models() with shared ownership, for consumers that hold the model
  /// set beyond the engine's lifetime (the batch layer's model banks,
  /// batch/model_bank_store.h). The default moves the Models(cap) result
  /// into a freshly allocated handle — still a single materialization.
  /// Engines whose enumeration is memoized override it to alias internal
  /// storage (EGCWA hands out its exhausted projection stream), so the
  /// stream, the in-flight bank and the store all reference ONE copy.
  /// Same cap/overflow conventions as Models().
  virtual Result<std::shared_ptr<const std::vector<Interpretation>>>
  SharedModels(int64_t cap = -1);

  /// A certificate for a failed inference: an intended model violating `f`,
  /// or nullopt when f is inferred. The default enumerates Models() (so it
  /// may hit the resource caps); semantics with native counterexample
  /// search override it. (PDSM reports the true-atom projection of a
  /// partial counterexample.)
  virtual Result<std::optional<Interpretation>> FindCounterexample(
      const Formula& f);

  /// Brave (credulous) inference: is f true in *some* intended model?
  /// The dual of InfersFormula, realized through FindCounterexample(~f)
  /// (the complexity jumps from the paper's Π-side classes to their
  /// Σ-side duals, the variant Schaerf's related work analyzes).
  /// Under PDSM's 3-valued reading this asks for a partial stable model in
  /// which f is not false.
  Result<bool> InfersCredulously(const Formula& f);

  /// Cumulative oracle accounting of the owned engine; helper and reduct
  /// engines a query spawns fold their counters into it.
  const MinimalStats& stats() const { return engine_.stats(); }

  /// Session-reuse accounting of the owned engine (all zero in
  /// fresh-solver mode).
  oracle::SessionStats session_stats() const {
    return engine_.session_stats();
  }

  /// Adds the engine's work since the previous call to `*stats` and
  /// `*session`, so each counter is reported exactly once however often
  /// this is called. core/Reasoner folds these reports into its query
  /// spans and running totals; the batch layer hands a group engine's
  /// report back in GroupResult.
  void ReportNewWork(MinimalStats* stats, oracle::SessionStats* session);

  /// Installs (or with nullptr removes) a shared query budget on the
  /// options (inherited by every helper engine and solver built from
  /// them) and on the owned engine, clearing any interrupt latched by a
  /// previous budgeted query. While a budget is attached, the
  /// Result-returning entry points answer kDeadlineExceeded/
  /// kResourceExhausted on exhaustion; any OK answer is identical to the
  /// unbudgeted one ("Unknown is allowed, wrong is not",
  /// docs/ROBUSTNESS.md). Cached results (e.g. the closed-world
  /// augmentation set N) survive: they are only ever cached after an
  /// uninterrupted computation.
  void SetBudget(std::shared_ptr<Budget> budget);

  /// Attaches (nullptr detaches) a query trace to the owned engine, which
  /// opens one "minimal"-layer span per outermost operation. Helper and
  /// reduct engines spawned during a query run untraced — their counters
  /// fold into stats() and are attributed to the enclosing span. Installed
  /// per query by core/Reasoner; see obs/trace.h and docs/OBSERVABILITY.md.
  void SetTrace(obs::TraceContext* trace) { engine_.SetTrace(trace); }

  /// Anytime payload: the models a Models() call had already collected when
  /// it was cut short by budget exhaustion (the call itself returns the
  /// exhaustion Status). Moving-out; cleared by the next Models() call.
  /// Every returned model IS an intended model — the set is merely
  /// truncated, per the anytime-soundness contract.
  std::vector<Interpretation> TakePartialModels() {
    return std::move(partial_models_);
  }

 protected:
  /// The owned engine reasons over `db` itself.
  Semantics(const Database& db, const SemanticsOptions& opts)
      : Semantics(db, opts, db) {}
  /// The owned engine reasons over `engine_db`, a database derived from
  /// `db` (ICWA's positivized database, PDSM's two-bit encoding).
  Semantics(const Database& db, const SemanticsOptions& opts,
            const Database& engine_db)
      : db_(db), opts_(opts), engine_(engine_db, opts.minimal_options()) {}

  Database db_;
  SemanticsOptions opts_;
  MinimalEngine engine_;
  /// Implementations stash their collected-so-far models here before
  /// returning an exhaustion Status from Models().
  std::vector<Interpretation> partial_models_;

 private:
  /// What ReportNewWork has reported so far.
  MinimalStats reported_;
  oracle::SessionStats reported_session_;
};

/// The one engine factory. CCWA and ECWA take `partition` when it is
/// non-null, else the all-minimized partition, under which CCWA
/// degenerates to GCWA and ECWA to EGCWA; the other kinds ignore it.
std::unique_ptr<Semantics> MakeSemantics(SemanticsKind kind,
                                         const Database& db,
                                         const SemanticsOptions& opts = {},
                                         const Partition* partition = nullptr);

}  // namespace dd

#endif  // DD_SEMANTICS_SEMANTICS_H_
