// Batched query evaluation: cross-query work sharing over one database.
//
// The paper prices every skeptical query at an NP/Σ₂ᵖ oracle call; the
// practical lever for serving many queries against the same disjunctive
// database is amortization. A batch is processed as a pipeline
// (core/Reasoner::AnswerBatch orchestrates it):
//
//   1. canonicalize — every literal/formula query is simplified to a
//      normal form with an order-independent canonical key; top-level
//      conjunctions split into their conjuncts (skeptical inference
//      distributes over ∧ under every implemented semantics, including
//      PDSM's 3-valued reading), which lets batch members subsume each
//      other's parts;
//   2. dedupe — queries with equal canonical keys are answered once;
//   3. cache — definite answers keyed on (database fingerprint, semantics,
//      canonical key) are served from batch/answer_cache.h;
//   4. group — survivors are grouped by relevance module
//      (batch/batch_planner.h, reusing analysis/slicer under the same
//      per-semantics soundness gates as single-query dispatch);
//   5. evaluate — the planner picks one of three evaluations per group
//      (GroupEval): a bank the batch/model_bank_store.h store already
//      holds answers the group with no engine at all; a group of at least
//      MinBankGroup(kind, mode) unique queries enumerates a new shared
//      minimal-model bank on its own engine, answers every member from it
//      and stores it for later batches (falling back to per-query calls
//      when the intended-model set does not fit under the bank cap); any
//      other group answers directly, per query, on its own engine (still
//      sharing the engine's session, memo and projection streams) and
//      builds no bank. Groups run in parallel under one shared Budget;
//      exhaustion yields sound kUnknown answers, which are NEVER cached.
//
// The pipeline runs in one of two modes (BatchMode):
//   * kSkeptical — "f true in EVERY intended model". Top-level ∧ splits;
//     a group bank answers by a for-all pass.
//   * kBrave — "f true in SOME intended model" (InfersCredulously).
//     Brave inference distributes over ∨, not ∧, so top-level ∨ splits
//     and answers recompose by Kleene disjunction; a group bank answers
//     by an exists pass over the SAME models a skeptical batch would
//     bank. Per-query fallback goes through the engine's own
//     FindCounterexample(¬f), so fallback answers equal the sequential
//     InfersCredulously entry point by construction.
//
// Soundness gates (docs/BATCHING.md):
//   * model bank: requires InfersFormula(f) == "f true in every Models()
//     entry" (skeptical) resp. InfersCredulously(f) == "f true in some
//     Models() entry" (brave), which holds for every 2-valued semantics
//     (core/brute_force.h pins the characterizations) but NOT for PDSM's
//     3-valued evaluation — BankIsSound / BraveBankIsSound gate it off
//     there;
//   * bank completeness: the enumeration asks for cap+1 models and the
//     bank is trusted only when at most cap came back — which proves the
//     set is complete even when it has exactly cap models (trusting a
//     possibly-truncated bank could flip answers);
//   * grouping: module slicing applies only where SliceIsSound allows
//     (off for CWA/PDSM and custom CCWA/ECWA partitions — those run as
//     one whole-database group). SliceIsSound certifies a bijection
//     between the slice's and the whole database's intended models over
//     the module's atoms, which preserves both the for-all and the
//     exists pass, so the same gate covers both modes.
#ifndef DD_BATCH_QUERY_BATCH_H_
#define DD_BATCH_QUERY_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "batch/answer_cache.h"
#include "batch/model_bank_store.h"
#include "logic/database.h"
#include "logic/formula.h"
#include "logic/vocabulary.h"
#include "minimal/pqz.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "semantics/semantics.h"
#include "util/budget.h"
#include "util/status.h"

namespace dd {
namespace batch {

/// One query of a batch, by text. Literal queries ("a", "not a") parse
/// as one literal; formula queries parse the full formula language.
/// `formula`, when set, is the query pre-built over the answering
/// Reasoner's vocabulary: the batch uses it as is and ignores `text` and
/// `is_literal` (template instantiation builds queries this way; text
/// stays the wire form everywhere else).
struct BatchQuery {
  std::string text;
  bool is_literal = false;
  Formula formula = nullptr;
};

/// Which direction a batch answers (see the header comment): skeptical
/// "true in every intended model" or brave/credulous "true in some".
enum class BatchMode {
  kSkeptical,
  kBrave,
};

/// Per-batch knobs. The budget fields mirror core/QueryOptions but cover
/// the WHOLE batch: one shared Budget is installed across every group.
struct BatchOptions {
  /// Worker threads for parallel group evaluation; answers are identical
  /// for every value (index-slot merging). <= 0 uses
  /// ThreadPool::DefaultThreads().
  int num_threads = 1;

  /// Cap on models enumerated into a group's shared model bank; a group
  /// whose intended-model set does not fit falls back to per-query
  /// evaluation. <= 0 disables banks entirely. Only groups of at least
  /// MinBankGroup unique queries build a bank; smaller ones answer per
  /// query unless the store already holds their bank.
  int64_t model_bank_cap = 4096;

  /// Use the reasoner-owned answer cache (created on first use with
  /// AnswerCache's default capacity). `cache` overrides with an external
  /// instance, e.g. one shared across reasoners by a server.
  bool use_answer_cache = true;
  AnswerCache* cache = nullptr;  ///< not owned; may be null

  /// Use the reasoner-owned model-bank store (created on first use with
  /// `bank_store_capacity` banks), so complete group banks are reused by
  /// later non-identical batches. `bank_store` overrides with an external
  /// instance. Automatically disabled for reasoners with a custom
  /// CCWA/ECWA partition (the store key cannot see partitions) and when
  /// model_bank_cap <= 0.
  bool use_bank_store = true;
  int64_t bank_store_capacity = 32;
  ModelBankStore* bank_store = nullptr;  ///< not owned; may be null

  /// Collect per-query witness models: for a brave kYes the intended
  /// model satisfying the query; for a skeptical kNo the counterexample
  /// violating it. Disables answer-cache reads for the batch (hits carry
  /// no witness), so every answer is computed with its certificate.
  bool collect_witnesses = false;

  /// Whole-batch budget (see util/budget.h); -1 / null = unlimited.
  int64_t deadline_ms = -1;
  int64_t conflict_budget = -1;
  int64_t oracle_call_budget = -1;
  std::shared_ptr<CancelToken> cancel;

  /// Optional per-batch trace override (defaults to the reasoner trace).
  obs::TraceContext* trace = nullptr;
};

/// Accounting for one batch (and, via Add, for a reasoner's lifetime).
/// Published under dd.batch.* / dd.cache.* (docs/OBSERVABILITY.md).
struct BatchStats {
  int64_t queries = 0;          ///< input queries
  int64_t unique_queries = 0;   ///< canonical queries after split + dedupe
  int64_t dedup_hits = 0;       ///< duplicate canonical queries folded
  int64_t conjunct_splits = 0;  ///< inputs split at a top-level conjunction
  int64_t disjunct_splits = 0;  ///< brave inputs split at a top-level ∨
  int64_t groups = 0;           ///< planned evaluation groups
  int64_t bank_groups = 0;      ///< groups answered by a shared model bank
  /// Groups answered per query: direct groups (too small to pay for a
  /// bank, or bank-unsound) and new-bank groups whose models overflowed
  /// the cap. Equals groups - bank_groups for every batch that finishes.
  int64_t fallback_groups = 0;
  int64_t bank_models = 0;      ///< models enumerated into banks (built
                                ///< this batch; store hits add nothing)
  int64_t unknowns = 0;         ///< kUnknown answers returned (exhaustion)
  int64_t group_atoms = 0;      ///< vocabulary width summed over the groups
                                ///< that ran an engine (store hits run none)
  /// This batch's own answer-cache (dd.cache.*) and model-bank store
  /// (dd.bank.*) calls, counted as it makes them.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_insertions = 0;
  int64_t cache_evictions = 0;
  int64_t cache_invalidations = 0;
  int64_t bank_store_hits = 0;
  int64_t bank_store_misses = 0;
  int64_t bank_store_insertions = 0;
  int64_t bank_store_evictions = 0;
  int64_t bank_store_invalidations = 0;
  int64_t bank_store_truncated_rejected = 0;

  void Add(const BatchStats& o);
};

/// Folds the counters into `reg` under the canonical dd.batch.* /
/// dd.cache.* names. Monotonic registry: publish once (or deltas).
void Publish(const BatchStats& s, obs::MetricsRegistry* reg);

/// Answers for one batch, in input order (answers[i] belongs to
/// queries[i] regardless of dedup/grouping/thread count).
struct BatchAnswer {
  std::vector<Trilean> answers;
  /// With BatchOptions::collect_witnesses: witnesses[i] is the certifying
  /// intended model for answers[i] — a model satisfying the query for a
  /// brave kYes, a counterexample violating it for a skeptical kNo —
  /// and nullopt for the verdicts that have no certificate (skeptical
  /// kYes, brave kNo, kUnknown). Empty when witnesses are not collected.
  /// The witness certifies the decisive split part; when that part ran
  /// in a module group, it is an intended model of the module's slice,
  /// lifted to the whole vocabulary with every atom outside the slice
  /// false (the restriction of a whole-database intended model).
  std::vector<std::optional<Interpretation>> witnesses;
  BatchStats stats;
};

/// A canonicalized query: the simplified formula, its order-independent
/// key (atom names, sorted ∧/∨ children), its atom roots, and — when the
/// normal form is a bare literal — that literal for the cheaper fallback.
struct CanonicalQuery {
  Formula f;
  std::string key;
  std::vector<Var> roots;
  std::optional<Lit> lit;
};

/// `q` renamed into the numbering the ascending parent-Var list `atoms`
/// defines (analysis::LocalVar): an atom outside `atoms` becomes the
/// constant false. The key is kept; `lit` is recomputed. Sound wherever
/// the dropped atoms are false in every intended model, as atoms no
/// clause of a compact slice mentions are under SliceIsSound.
CanonicalQuery RenameQuery(const CanonicalQuery& q,
                           const std::vector<Var>& atoms);

/// The canonical key of `f` (assumed simplified): a serialization that is
/// invariant under child order of ∧/∨/↔ and under vocabulary interning
/// order (atoms render as names).
std::string CanonicalKey(const Formula& f, const Vocabulary& voc);

/// Simplifies and keys one query formula.
CanonicalQuery Canonicalize(const Formula& f, const Vocabulary& voc);

/// Keys one query formula that is already simplified, as the parts
/// SplitConjuncts and SplitDisjuncts return are (Simplify is idempotent,
/// so the result equals Canonicalize's).
CanonicalQuery CanonicalizeSimplified(Formula f, const Vocabulary& voc);

/// The top-level conjuncts of Simplify(f) (the formula itself when it is
/// not a conjunction). Skeptical inference distributes over ∧: DB |~ G∧H
/// iff DB |~ G and DB |~ H, because both sides quantify over the same
/// intended-model set (for PDSM, min-valuation over partial stable models
/// distributes the same way).
std::vector<Formula> SplitConjuncts(const Formula& f);

/// The top-level disjuncts of Simplify(f) (the formula itself when it is
/// not a disjunction). Brave inference distributes over ∨: DB |~brave G∨H
/// iff DB |~brave G or DB |~brave H — a model satisfies the disjunction
/// iff it satisfies a disjunct, and ∃ commutes with ∨ (for PDSM the
/// 3-valued reading distributes the same way: ¬(G∨H) is not-true in a
/// partial model iff ¬G or ¬H is).
std::vector<Formula> SplitDisjuncts(const Formula& f);

/// True when the shared model bank answers queries exactly like the
/// engine: every 2-valued semantics infers f iff f holds in all Models().
/// PDSM evaluates queries 3-valued over partial stable models, which
/// Models() (their total projections) cannot reproduce.
bool BankIsSound(SemanticsKind kind);

/// The brave twin: every 2-valued semantics infers f credulously iff f
/// holds in SOME Models() entry. False for PDSM for the same 3-valued
/// reason — its credulous check runs over partial stable models.
bool BraveBankIsSound(SemanticsKind kind);

/// How one group is evaluated (docs/BATCHING.md §1, stage 5). The planner sets
/// kDirect or kNewBank; a store hit upgrades the group to kStoredBank.
enum class GroupEval {
  kDirect,      ///< per-query engine calls; no bank is built or exported
  kNewBank,     ///< enumerate the group's bank, answer from it, export it
  kStoredBank,  ///< answer from GroupRequest::bank; no engine runs
};

/// Unique queries a group needs before a new bank pays for itself. A
/// query costs a few oracle calls (NP or Σ₂ᵖ), a bank one call per
/// intended model or more, so a bank only pays when queries share it,
/// in the batch or later through the store. bench_batch's group-size
/// sweep ("*/sweep_*" rows of results/BENCH_batch.json; table in
/// docs/BATCHING.md §5) times one group of 1, 2, 3, 4 and 8 queries
/// as a new bank and per query: at size 1 per query is faster, on three
/// seeds, for every bank-sound (kind, mode) except those MinBankGroup
/// lists.
/// From size 2 on the bank wins on some semantics within the batch, and
/// a stored bank answers later groups with no oracle call: on
/// perfbench's serve_zipf, banking from 2 serves ~7% more requests per
/// second than banking from 3 (docs/BATCHING.md §5).
inline constexpr size_t kMinBankGroup = 2;

/// The smallest group that builds a new bank under (kind, mode): the
/// table next to BankIsSound. kMinBankGroup, except where the sweep
/// shows a one-query bank no slower than the direct path, so the bank
/// is built and stored at no cost: CWA, which has at most one intended
/// model, and ICWA brave, whose FindCounterexample is Semantics'
/// default Models() scan.
size_t MinBankGroup(SemanticsKind kind, BatchMode mode);

/// The enumeration cap a group bank actually runs under: the batch's
/// model_bank_cap clamped by the engine options' max_models. One
/// definition shared by EvaluateGroup and the bank-store key, so a store
/// hit is exactly the bank the group would have rebuilt.
inline int64_t EffectiveBankCap(int64_t model_bank_cap,
                                const SemanticsOptions& opts) {
  return opts.max_models > 0 ? std::min(model_bank_cap, opts.max_models)
                             : model_bank_cap;
}

/// One evaluation group: a database restriction plus the member queries,
/// both in the restriction's own numbering (a compact module
/// sub-database renumbers its atoms; analysis::SubDatabase).
struct GroupRequest {
  /// Whole db or a compact module sub-database; may be null when `bank`
  /// answers the group.
  const Database* db = nullptr;
  SemanticsKind kind = SemanticsKind::kGcwa;
  BatchMode mode = BatchMode::kSkeptical;
  SemanticsOptions opts;              ///< engine tuning (trace-free)
  const Partition* partition = nullptr;  ///< custom CCWA/ECWA partition
  std::vector<const CanonicalQuery*> queries;
  std::shared_ptr<Budget> budget;  ///< shared whole-batch budget
  /// The planner's choice (PlannedGroup::eval); kNewBank and kStoredBank
  /// are only ever chosen where the mode's bank gate allows.
  GroupEval eval = GroupEval::kDirect;
  int64_t model_bank_cap = 4096;
  /// With kStoredBank: the stored complete bank that answers the group
  /// entirely — no engine, no oracle work, no budget spend.
  std::shared_ptr<const ModelBank> bank;
  /// With kNewBank: hand the freshly built complete bank back in
  /// GroupResult::built_bank so the caller can store it.
  bool export_bank = false;
  bool collect_witnesses = false;
};

/// One group's outcome. `answers` parallels GroupRequest::queries;
/// exhaustion shows up as kUnknown entries, hard failures (e.g. a
/// semantics precondition) land in `error` with kUnknown placeholders.
struct GroupResult {
  std::vector<Trilean> answers;
  Status error;  ///< first non-budget failure, OK otherwise
  /// The group engine's report (Semantics::ReportNewWork); zero when no
  /// engine ran.
  MinimalStats stats;
  oracle::SessionStats session_stats;
  bool used_bank = false;
  bool bank_from_store = false;  ///< answered from GroupRequest::bank
  int64_t bank_models = 0;       ///< models enumerated (0 on store hits)
  /// The complete bank built this evaluation, for the caller's store
  /// (only with GroupRequest::export_bank, only when provably complete —
  /// a truncated enumeration never produces one).
  std::shared_ptr<const ModelBank> built_bank;
  /// Parallel to `answers` with GroupRequest::collect_witnesses (see
  /// BatchAnswer::witnesses).
  std::vector<std::optional<Interpretation>> witnesses;
};

/// Evaluates one group as req.eval says: from the stored bank, or on a
/// fresh engine by a new bank (per-query fallback on overflow) or per
/// query. Self-contained and thread-safe across distinct groups: the only
/// shared state is the thread-safe Budget.
GroupResult EvaluateGroup(const GroupRequest& req);

}  // namespace batch
}  // namespace dd

#endif  // DD_BATCH_QUERY_BATCH_H_
