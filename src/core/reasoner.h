// Reasoner: the library's top-level facade.
//
// Wraps a database and lazily instantiates semantics engines; queries take
// textual literals/formulas and are parsed against the database vocabulary.
//
//   Reasoner r(std::move(db));
//   r.InfersLiteral(SemanticsKind::kGcwa, "not c");
//   r.InfersFormula(SemanticsKind::kEgcwa, "a | ~b");
//   r.HasModel(SemanticsKind::kDsm);
#ifndef DD_CORE_REASONER_H_
#define DD_CORE_REASONER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/certifier.h"
#include "analysis/dispatch.h"
#include "analysis/program_properties.h"
#include "analysis/slicer.h"
#include "batch/query_batch.h"
#include "ground/join.h"
#include "logic/database.h"
#include "logic/parser.h"
#include "minimal/pqz.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "semantics/semantics.h"
#include "util/budget.h"

namespace dd {

/// Per-query resource limits for the budgeted (anytime) entry points.
/// Unset fields (-1 / null) are unlimited; a default-constructed
/// QueryOptions imposes no limits at all. The budget protocol guarantees
/// "Unknown is allowed, wrong is not" (docs/ROBUSTNESS.md): a limited query
/// either returns the same answer the unlimited query would, or
/// Trilean::kUnknown — never a flipped yes/no.
struct QueryOptions {
  /// Wall-clock deadline for the whole query, in milliseconds.
  int64_t deadline_ms = -1;
  /// Total CDCL conflicts across every oracle call of the query.
  int64_t conflict_budget = -1;
  /// Total NP-oracle (SAT solver) invocations.
  int64_t oracle_call_budget = -1;
  /// Optional external kill switch: cancelling it aborts the query from
  /// another thread (reported as kCancelled, which — like the deadline and
  /// resource codes — satisfies Status::IsBudgetExhaustion()).
  std::shared_ptr<CancelToken> cancel;

  /// Optional per-query trace (not owned): the query's span tree lands
  /// here, alongside the Budget built from the limits above. Overrides any
  /// reasoner-level trace installed via Reasoner::set_trace for the
  /// duration of the call. See obs/trace.h and docs/OBSERVABILITY.md.
  obs::TraceContext* trace = nullptr;

  /// True when no budget axis is limited (the trace does not affect budget
  /// construction).
  bool unlimited() const {
    return deadline_ms < 0 && conflict_budget < 0 && oracle_call_budget < 0 &&
           cancel == nullptr;
  }
};

/// Result of a budgeted Models() query: on budget exhaustion `models` holds
/// the anytime prefix (every entry IS an intended model), `truncated` is
/// true and `reason` carries the exhaustion Status.
struct ModelsAnswer {
  std::vector<Interpretation> models;
  bool truncated = false;
  Status reason;  ///< OK unless truncated
};

class Reasoner {
 public:
  explicit Reasoner(Database db, SemanticsOptions opts = {});

  /// Parses program text into a reasoner.
  static Result<Reasoner> FromProgram(std::string_view text,
                                      SemanticsOptions opts = {});

  const Database& db() const { return db_; }

  /// Skeptical literal inference, e.g. InfersLiteral(kGcwa, "not c").
  Result<bool> InfersLiteral(SemanticsKind kind, std::string_view literal);

  /// Skeptical formula inference, e.g. InfersFormula(kEgcwa, "a -> b").
  Result<bool> InfersFormula(SemanticsKind kind, std::string_view formula);

  /// Parses a query formula against the database vocabulary (fresh atoms
  /// are interned; engines are rebuilt when the vocabulary grows). The
  /// string entry points (InfersFormula, InfersCredulously,
  /// FindCounterexample) parse through it.
  Result<Formula> ParseQueryFormula(std::string_view formula);

  /// The Var of the atom named `name`, interning it when fresh — the
  /// parser-free twin of ParseQueryFormula for callers that build query
  /// formulas directly (template instantiation, tmpl/template.h). Engines
  /// are rebuilt when the vocabulary grows, exactly as after parsing.
  Var InternQueryAtom(const std::string& name);

  Result<bool> HasModel(SemanticsKind kind);

  Result<std::vector<Interpretation>> Models(SemanticsKind kind,
                                             int64_t cap = -1);

  /// Budgeted (anytime) variants. A fresh Budget built from `q` is
  /// installed on the engine for the duration of the call and removed
  /// afterwards (clearing any latched interrupt, so the engine stays usable
  /// for later unbudgeted queries). Budget exhaustion maps to
  /// Trilean::kUnknown; all other failures surface as Status. Answers other
  /// than kUnknown are identical to the unbudgeted entry points.
  Result<Trilean> InfersLiteral(SemanticsKind kind, std::string_view literal,
                                const QueryOptions& q);
  Result<Trilean> InfersFormula(SemanticsKind kind, std::string_view formula,
                                const QueryOptions& q);
  Result<Trilean> HasModel(SemanticsKind kind, const QueryOptions& q);

  /// Budgeted model enumeration with an anytime payload: on exhaustion the
  /// models collected so far are returned with truncated=true instead of
  /// being thrown away. Exceeding `cap` (or options().max_models) also
  /// reports truncation.
  Result<ModelsAnswer> Models(SemanticsKind kind, int64_t cap,
                              const QueryOptions& q);

  /// Brave (credulous) inference: is `formula` true in *some* intended
  /// model? Parsed against the vocabulary, run under the optional budget
  /// and trace like the skeptical entry points (budget exhaustion =>
  /// kUnknown).
  Result<Trilean> InfersCredulously(SemanticsKind kind,
                                    std::string_view formula,
                                    const QueryOptions& q = {});

  /// Certificate search: an intended model violating `formula`, or nullopt
  /// when it is inferred. Budget exhaustion surfaces as the exhaustion
  /// Status (there is no three-valued certificate).
  Result<std::optional<Interpretation>> FindCounterexample(
      SemanticsKind kind, std::string_view formula,
      const QueryOptions& q = {});

  /// Batched skeptical inference (docs/BATCHING.md): canonicalizes,
  /// dedupes and conjunct-splits `queries`, serves repeats from the
  /// fingerprinted answer cache, groups the rest by relevance module and
  /// evaluates each group once — sharing a minimal-model bank per group —
  /// with groups running in parallel under one whole-batch budget.
  /// answers[i] always corresponds to queries[i]; budget exhaustion shows
  /// up as kUnknown entries (never cached), parse errors and engine
  /// preconditions as Status. Answers are identical to the sequential
  /// entry points and independent of opts.num_threads.
  Result<batch::BatchAnswer> AnswerBatch(SemanticsKind kind,
                                         const std::vector<batch::BatchQuery>& queries,
                                         const batch::BatchOptions& opts = {});

  /// Batched brave (credulous) inference: the existential dual of
  /// AnswerBatch over the SAME shared model banks and bank store. Queries
  /// are disjunct-split (∃ distributes over ∨, including under PDSM's
  /// 3-valued reading) and recomposed by Kleene OR; cache entries carry a
  /// mode tag so brave and skeptical answers never collide. Answers are
  /// identical to sequential InfersCredulously and independent of
  /// opts.num_threads. With opts.collect_witnesses, answers[i] == kYes
  /// carries a satisfying intended model in witnesses[i] (skeptical
  /// batches would carry a counterexample on kNo instead).
  Result<batch::BatchAnswer> AnswerBatchCredulous(
      SemanticsKind kind, const std::vector<batch::BatchQuery>& queries,
      const batch::BatchOptions& opts = {});

  /// Stable 64-bit fingerprint of the database's clause multiset
  /// (util/fingerprint.h): invariant under clause order and vocabulary
  /// interning order, flipped by any clause change. Computed once —
  /// clauses are immutable for a reasoner's lifetime, and vocabulary
  /// growth from query parsing does not contribute.
  uint64_t fingerprint();

  /// The atoms the database's clauses mention, as ground tuples, plus
  /// their sorted constant universe (ground::IndexDatabase): what template
  /// enumeration joins against. Built on the first call, never before, and
  /// kept for the same reason as fingerprint(): clauses are immutable and
  /// atoms a query interns are never clause-mentioned, so the index
  /// survives InvalidateCaches(). `*built` (when given) is set to whether
  /// this call built it.
  const ground::TupleIndex& mention_index(bool* built = nullptr);

  /// The reasoner-owned answer cache (null until the first cached batch).
  batch::AnswerCache* answer_cache() { return answer_cache_.get(); }

  /// The reasoner-owned cross-batch model-bank store (null until the
  /// first batch that uses one). Banks built by one AnswerBatch call are
  /// reused by later, non-identical batches hitting the same relevance
  /// module (docs/BATCHING.md).
  batch::ModelBankStore* bank_store() { return bank_store_.get(); }

  /// Cumulative batch accounting across every AnswerBatch call.
  const batch::BatchStats& batch_stats() const { return batch_total_; }

  /// Configures the <P;Q;Z> partition used by CCWA and ECWA, given atom
  /// names. Unlisted atoms fall into the part named by `rest` ('p', 'q' or
  /// 'z'). Resets the cached CCWA/ECWA engines.
  Status SetPartition(const std::vector<std::string>& p_atoms,
                      const std::vector<std::string>& q_atoms,
                      const std::vector<std::string>& z_atoms,
                      char rest = 'z');

  /// The custom CCWA/ECWA partition, or null when the default
  /// minimize-everything preorder applies (callers like tmpl/answer.h
  /// gate relevance pruning on this).
  const Partition* partition() const {
    return partition_.has_value() ? &*partition_ : nullptr;
  }

  /// Running oracle totals: the sum of every engine report the entry
  /// points have folded so far, including the work of engines since
  /// dropped by InvalidateCaches(), SetPartition or EnableCertification.
  MinimalStats TotalStats() const { return total_stats_; }

  /// Running session-reuse totals, kept the same way (all zero in
  /// fresh-solver mode).
  oracle::SessionStats TotalSessionStats() const {
    return total_session_stats_;
  }

  /// Attaches (nullptr detaches) a trace to this reasoner and every engine
  /// it has created or will create: each entry point then records one
  /// "reasoner"-layer span carrying the query's oracle-call, cache-hit,
  /// dispatch-downgrade and budget-consumption attribution, with the
  /// engine layers' spans nested below. QueryOptions::trace overrides this
  /// per query.
  void set_trace(obs::TraceContext* trace);
  obs::TraceContext* trace() const { return trace_; }

  /// Publishes the reasoner's cumulative counters (oracle totals, dispatch
  /// downgrades, session reuse) into `reg` under the canonical dd.* names
  /// (obs/stats_view.h). Counters in the registry are monotonic: publish
  /// once per reasoner (e.g. at CLI exit), not per query.
  void PublishMetrics(obs::MetricsRegistry* reg) const;

  /// The static analysis of the current database (computed lazily, cached;
  /// recomputed when a query grows the vocabulary).
  const analysis::ProgramProperties& properties();

  /// Counters for every analyzer-driven engine downgrade (and generic
  /// fallthroughs) performed by this reasoner.
  const analysis::DispatchStats& dispatch_stats() const {
    return dispatch_stats_;
  }

  /// Toggles analyzer-driven dispatch (on by default; see
  /// SemanticsOptions::analysis_dispatch). Off forces every query through
  /// the generic engines.
  void set_analysis_dispatch(bool on) { opts_.analysis_dispatch = on; }

  /// Toggles certificate-checked mode (ddquery --certify): while on, every
  /// polynomial HCF minimality verdict and every slice/module routing
  /// emits a machine-checkable witness that is immediately re-verified by
  /// analysis/certifier.h — independently of the engines that produced it.
  /// Accounting lands in certification_stats(); a nonzero `rejected` means
  /// an engine and the certifier disagree (a bug, never a user error).
  /// Resets cached engines so certificate sinks attach everywhere.
  void EnableCertification(bool on);
  bool certification_enabled() const { return certify_; }
  const analysis::CertificationStats& certification_stats() const {
    return cert_stats_;
  }
  /// Rejection messages (capped; empty when every certificate verified).
  const std::vector<std::string>& certification_failures() const {
    return cert_failures_;
  }

 private:
  /// The lazily created engine for `kind` (never null). Private: work
  /// done through it would land in the next entry point's span.
  Semantics* Get(SemanticsKind kind);

  /// A routed query: which path, and (for engine-executed paths) which
  /// Semantics instance runs it — null when FastPathEngine serves it.
  struct Routed {
    analysis::EnginePath path = analysis::EnginePath::kGeneric;
    Semantics* engine = nullptr;
    /// Set when `engine` runs on a compact slice; queries are renamed
    /// into its numbering.
    const analysis::SubDatabase* sub = nullptr;

    Lit Local(Lit l) const;
    Formula Local(const Formula& f) const;
  };

  /// One slice footprint — a clause set with its atom set — in compact
  /// form, kept until InvalidateCaches(): the module fingerprint and atom
  /// order that key its banks in the store, the clause-mentioned atoms
  /// those banks are numbered over, and, built on first need, the compact
  /// sub-database (analysis::SubDatabase) with the single-query engines
  /// that run on it.
  struct CompactSlice {
    uint64_t fingerprint = 0;
    uint64_t atom_order = 0;
    std::vector<Var> module_atoms;
    std::optional<analysis::SubDatabase> sub;
    std::map<SemanticsKind, std::unique_ptr<Semantics>> engines;
  };

  /// Drops cached engines and analysis after the vocabulary grew.
  void InvalidateCaches();
  /// The fast-path engine for the current database (never null).
  analysis::FastPathEngine* fast_engine();
  /// The incidence/module index of the current database (never null).
  analysis::Slicer* slicer();
  /// The `kind` engine with the polynomial HCF minimality path enabled
  /// (EnginePath::kHcfUnfounded); cached separately from Get(kind) so the
  /// generic baseline's oracle accounting is untouched.
  Semantics* GetHcf(SemanticsKind kind);
  /// The cached compact form of slice `s` (never null); its
  /// sub-database is left for the caller to build on first need.
  CompactSlice* GetCompactSlice(const analysis::SliceResult& s);
  /// Routes `rt` to the `kind` engine over the compact sub-database of
  /// slice `s`, cached with the slice.
  void RouteToSlice(SemanticsKind kind, const analysis::SliceResult& s,
                    Routed* rt);
  /// The atom order pinning whole-database banks: the names of the
  /// vocabulary prefix the clauses mention, fixed for the reasoner's
  /// lifetime (query atoms are interned after it).
  uint64_t whole_atom_order();

  /// The "reasoner"-layer span of one entry point, and the one place its
  /// dispatch decision and engine reports join the running totals; the
  /// per-query trace and budget installer of one engine call (both
  /// defined in reasoner.cc).
  class QuerySpan;
  class EngineScope;

  /// Routing front half shared by the literal/formula entry points:
  /// computes the query shape, records the dispatch path on `span`, emits
  /// the slice certificate in certify mode, and picks the executing
  /// engine.
  Routed RouteLiteral(SemanticsKind kind, Lit l, QuerySpan* span);
  Routed RouteFormula(SemanticsKind kind, const Formula& f, QuerySpan* span);
  Routed RouteHasModel(SemanticsKind kind, QuerySpan* span);

  /// The one body of each decision entry point: the bool overloads run it
  /// with default QueryOptions (no budget, the reasoner trace), the
  /// Trilean overloads map its budget exhaustion to kUnknown.
  Result<bool> LiteralQuery(SemanticsKind kind, std::string_view literal,
                            const QueryOptions& q);
  Result<bool> FormulaQuery(SemanticsKind kind, std::string_view formula,
                            const QueryOptions& q);
  Result<bool> HasModelQuery(SemanticsKind kind, const QueryOptions& q);

  /// The one batched-inference pipeline, parameterized by mode (universal
  /// vs existential pass over the shared banks); AnswerBatch and
  /// AnswerBatchCredulous are thin wrappers.
  Result<batch::BatchAnswer> AnswerBatchImpl(
      SemanticsKind kind, const std::vector<batch::BatchQuery>& queries,
      const batch::BatchOptions& opts, batch::BatchMode mode);

  /// Certify-mode bookkeeping: verifies and discards `cert`.
  void CheckCertificate(const analysis::Certificate& cert);
  /// Verifies every certificate the HCF engines queued since last drain.
  void DrainHcfCertificates();

  Database db_;
  SemanticsOptions opts_;
  obs::TraceContext* trace_ = nullptr;
  std::map<SemanticsKind, std::unique_ptr<Semantics>> engines_;
  std::map<SemanticsKind, std::unique_ptr<Semantics>> hcf_engines_;
  /// Keyed by (clause indices, atoms) of the slice.
  std::map<std::pair<std::vector<int>, std::vector<Var>>, CompactSlice>
      compact_slices_;
  std::optional<Partition> partition_;
  /// Where atoms interned AFTER SetPartition land when the partition is
  /// regrown to a larger vocabulary (see InvalidateCaches).
  char partition_rest_ = 'z';
  std::optional<analysis::ProgramProperties> props_;
  std::unique_ptr<analysis::FastPathEngine> fast_;
  std::unique_ptr<analysis::Slicer> slicer_;
  analysis::DispatchStats dispatch_stats_;
  MinimalStats total_stats_;
  oracle::SessionStats total_session_stats_;

  std::optional<uint64_t> fingerprint_;
  std::optional<uint64_t> whole_atom_order_;
  std::optional<ground::TupleIndex> mention_index_;
  std::unique_ptr<batch::AnswerCache> answer_cache_;
  std::unique_ptr<batch::ModelBankStore> bank_store_;
  batch::BatchStats batch_total_;

  bool certify_ = false;
  analysis::CertificationStats cert_stats_;
  std::vector<std::string> cert_failures_;
  /// Heap-allocated so its address survives Reasoner moves (engines capture
  /// the pointer at construction time).
  std::unique_ptr<std::vector<analysis::Certificate>> hcf_cert_sink_ =
      std::make_unique<std::vector<analysis::Certificate>>();
};

}  // namespace dd

#endif  // DD_CORE_REASONER_H_
