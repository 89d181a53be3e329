#include "core/reasoner.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "batch/batch_planner.h"
#include "logic/formula_transform.h"
#include "obs/stats_view.h"
#include "util/fingerprint.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace dd {

/// One "reasoner"-layer span per entry point. Each counter has one owner:
/// the dispatch path (Record) and each engine report (Fold) are added to
/// the span and to the reasoner's running totals in the same step, so the
/// exactness contract pinned by tests/obs_test.cc — summing a counter over
/// the reasoner spans reproduces the total — holds by construction, and
/// holds across InvalidateCaches(). Untraced, the span only folds.
class Reasoner::QuerySpan {
 public:
  QuerySpan(Reasoner* r, obs::TraceContext* t, const char* op,
            SemanticsKind kind)
      : r_(r), t_(t) {
    if (t_ == nullptr) return;
    id_ = t_->OpenSpan(op, "reasoner");
    t_->SetAttr(id_, "semantics", SemanticsKindName(kind));
  }

  void Record(analysis::EnginePath path) {
    r_->dispatch_stats_.Record(path);
    dispatch_.Record(path);
  }

  /// Folds one report: a batch group's, or `engine`'s new work.
  void Fold(const MinimalStats& s, const oracle::SessionStats& ss) {
    r_->total_stats_.Add(s);
    r_->total_session_stats_.Add(ss);
    stats_.Add(s);
    session_.Add(ss);
  }
  void Fold(Semantics* engine) {
    MinimalStats s;
    oracle::SessionStats ss;
    engine->ReportNewWork(&s, &ss);
    Fold(s, ss);
  }

  /// Budget-consumption attribution: the budget is created fresh for one
  /// query, so its consumed() totals ARE this query's.
  std::shared_ptr<Budget> AttachBudget(std::shared_ptr<Budget> b) {
    budget_ = b;
    return b;
  }

  /// Extra per-span counters (the batch entry point annotates its span
  /// with pipeline totals: queries, groups, cache hits, ...).
  void AddCounter(const char* name, int64_t v) {
    if (t_ != nullptr) t_->AddCounter(id_, name, v);
  }

  ~QuerySpan() {
    if (t_ == nullptr) return;
    t_->AddCounter(id_, "oracle_calls", stats_.sat_calls);
    t_->AddCounter(id_, "minimizations", stats_.minimizations);
    t_->AddCounter(id_, "cegar_iterations", stats_.cegar_iterations);
    t_->AddCounter(id_, "models_enumerated", stats_.models_enumerated);
    t_->AddCounter(id_, "cache_hits", session_.cache_hits);
    t_->AddCounter(id_, "cache_misses", session_.cache_misses);
    t_->AddCounter(id_, "dispatch_generic", dispatch_.generic);
    t_->AddCounter(id_, "dispatch_downgrades", dispatch_.Downgrades());
    // The structural-path counters append only when the query used one, so
    // span trees of programs that never slice stay byte-identical.
    if (dispatch_.slice_literal != 0) {
      t_->AddCounter(id_, "dispatch_slice", dispatch_.slice_literal);
    }
    if (dispatch_.module_formula != 0) {
      t_->AddCounter(id_, "dispatch_module", dispatch_.module_formula);
    }
    if (dispatch_.hcf_unfounded != 0) {
      t_->AddCounter(id_, "dispatch_hcf", dispatch_.hcf_unfounded);
    }
    if (budget_ != nullptr) {
      t_->AddCounter(id_, "conflicts_consumed", budget_->conflicts_consumed());
      t_->AddCounter(id_, "oracle_calls_consumed",
                     budget_->oracle_calls_consumed());
      const Status st = budget_->ToStatus();
      if (!st.ok()) t_->SetAttr(id_, "exhausted", st.ToString());
    }
    t_->CloseSpan(id_);
  }

  QuerySpan(const QuerySpan&) = delete;
  QuerySpan& operator=(const QuerySpan&) = delete;

 private:
  Reasoner* r_;
  obs::TraceContext* t_;
  int id_ = -1;
  MinimalStats stats_;
  oracle::SessionStats session_;
  analysis::DispatchStats dispatch_;
  std::shared_ptr<Budget> budget_;
};

Reasoner::Reasoner(Database db, SemanticsOptions opts)
    : db_(std::move(db)), opts_(opts) {}

Result<Reasoner> Reasoner::FromProgram(std::string_view text,
                                       SemanticsOptions opts) {
  DD_ASSIGN_OR_RETURN(Database db, ParseDatabase(text));
  return Reasoner(std::move(db), opts);
}

Semantics* Reasoner::Get(SemanticsKind kind) {
  auto it = engines_.find(kind);
  if (it == engines_.end()) {
    std::unique_ptr<Semantics> engine = MakeSemantics(
        kind, db_, opts_, partition_.has_value() ? &*partition_ : nullptr);
    engine->SetTrace(trace_);
    it = engines_.emplace(kind, std::move(engine)).first;
  }
  return it->second.get();
}

Semantics* Reasoner::GetHcf(SemanticsKind kind) {
  auto it = hcf_engines_.find(kind);
  if (it == hcf_engines_.end()) {
    SemanticsOptions o = opts_;
    o.hcf_minimality = true;
    o.hcf_certificates = certify_ ? hcf_cert_sink_.get() : nullptr;
    // kHcfUnfounded is never selected under a custom CCWA/ECWA partition,
    // so the parameterless factory covers every kind that reaches here.
    std::unique_ptr<Semantics> engine = MakeSemantics(kind, db_, o);
    engine->SetTrace(trace_);
    it = hcf_engines_.emplace(kind, std::move(engine)).first;
  }
  return it->second.get();
}

Lit Reasoner::Routed::Local(Lit l) const {
  if (sub == nullptr) return l;
  return Lit::Make(analysis::LocalVar(sub->to_parent, l.var()), l.positive());
}

Formula Reasoner::Routed::Local(const Formula& f) const {
  if (sub == nullptr) return f;
  return RenameAtoms(
      f, [this](Var v) { return analysis::LocalVar(sub->to_parent, v); });
}

Reasoner::CompactSlice* Reasoner::GetCompactSlice(
    const analysis::SliceResult& s) {
  auto [it, fresh] = compact_slices_.try_emplace(
      std::make_pair(s.clause_indices, s.relevant.TrueAtoms()));
  CompactSlice& cs = it->second;
  if (fresh) {
    cs.fingerprint = ClauseSubsetFingerprint(db_, s.clause_indices);
    cs.module_atoms = slicer()->ClauseAtoms(s.clause_indices);
    cs.atom_order = AtomOrderFingerprint(db_.vocabulary(), cs.module_atoms);
  }
  return &cs;
}

void Reasoner::RouteToSlice(SemanticsKind kind,
                            const analysis::SliceResult& s, Routed* rt) {
  CompactSlice* cs = GetCompactSlice(s);
  if (!cs->sub.has_value()) cs->sub = slicer()->MakeSubDatabase(s);
  auto it = cs->engines.find(kind);
  if (it == cs->engines.end()) {
    SemanticsOptions o = opts_;
    // Compose the speedups: a sub-database of a head-cycle-free database
    // is head-cycle-free (its positive graph is a subgraph), and the
    // engine re-verifies applicability on the slice itself anyway.
    o.hcf_minimality = true;
    o.hcf_certificates = certify_ ? hcf_cert_sink_.get() : nullptr;
    std::unique_ptr<Semantics> engine = MakeSemantics(kind, cs->sub->db, o);
    engine->SetTrace(trace_);
    it = cs->engines.emplace(kind, std::move(engine)).first;
  }
  rt->engine = it->second.get();
  rt->sub = &*cs->sub;
}

uint64_t Reasoner::whole_atom_order() {
  if (!whole_atom_order_.has_value()) {
    Var max_var = -1;
    for (const Clause& c : db_.clauses()) {
      max_var = std::max(max_var, c.MaxVar());
    }
    std::vector<Var> prefix(static_cast<size_t>(max_var + 1));
    std::iota(prefix.begin(), prefix.end(), 0);
    whole_atom_order_ = AtomOrderFingerprint(db_.vocabulary(), prefix);
  }
  return *whole_atom_order_;
}

void Reasoner::set_trace(obs::TraceContext* trace) {
  trace_ = trace;
  for (auto& [kind, engine] : engines_) engine->SetTrace(trace);
  for (auto& [kind, engine] : hcf_engines_) engine->SetTrace(trace);
  for (auto& [key, cs] : compact_slices_) {
    for (auto& [kind, engine] : cs.engines) engine->SetTrace(trace);
  }
}

Status Reasoner::SetPartition(const std::vector<std::string>& p_atoms,
                              const std::vector<std::string>& q_atoms,
                              const std::vector<std::string>& z_atoms,
                              char rest) {
  const int n = db_.num_vars();
  Partition part;
  part.p = Interpretation(n);
  part.q = Interpretation(n);
  part.z = Interpretation(n);
  Interpretation assigned(n);
  auto place = [&](const std::vector<std::string>& names,
                   Interpretation* side) -> Status {
    for (const auto& name : names) {
      Var v = db_.vocabulary().Find(name);
      if (v == kInvalidVar) {
        return Status::NotFound("unknown atom '" + name + "'");
      }
      if (assigned.Contains(v)) {
        return Status::InvalidArgument(
            "atom '" + name + "' placed in two parts");
      }
      assigned.Insert(v);
      side->Insert(v);
    }
    return Status::OK();
  };
  DD_RETURN_IF_ERROR(place(p_atoms, &part.p));
  DD_RETURN_IF_ERROR(place(q_atoms, &part.q));
  DD_RETURN_IF_ERROR(place(z_atoms, &part.z));
  for (Var v = 0; v < n; ++v) {
    if (assigned.Contains(v)) continue;
    switch (rest) {
      case 'p':
        part.p.Insert(v);
        break;
      case 'q':
        part.q.Insert(v);
        break;
      case 'z':
        part.z.Insert(v);
        break;
      default:
        return Status::InvalidArgument(
            StrFormat("rest part must be 'p', 'q' or 'z', got '%c'", rest));
    }
  }
  DD_RETURN_IF_ERROR(part.Validate());
  partition_ = std::move(part);
  partition_rest_ = rest;
  engines_.erase(SemanticsKind::kCcwa);
  engines_.erase(SemanticsKind::kEcwa);
  return Status::OK();
}

void Reasoner::InvalidateCaches() {
  engines_.clear();
  hcf_engines_.clear();
  compact_slices_.clear();
  props_.reset();
  fast_.reset();
  slicer_.reset();
  // Parsing a query can intern fresh atoms; a custom <P;Q;Z> partition
  // snapshot must keep covering the whole vocabulary or the CCWA/ECWA
  // rebuild trips its size invariant. New atoms join the `rest` part the
  // caller picked at SetPartition time.
  if (partition_.has_value() && partition_->num_vars() != db_.num_vars()) {
    const int n = db_.num_vars();
    auto grow = [n](const Interpretation& old) {
      Interpretation out(n);
      for (Var v : old.TrueAtoms()) out.Insert(v);
      return out;
    };
    Partition part;
    part.p = grow(partition_->p);
    part.q = grow(partition_->q);
    part.z = grow(partition_->z);
    for (Var v = partition_->num_vars(); v < n; ++v) {
      switch (partition_rest_) {
        case 'p':
          part.p.Insert(v);
          break;
        case 'q':
          part.q.Insert(v);
          break;
        default:
          part.z.Insert(v);
          break;
      }
    }
    partition_ = std::move(part);
  }
}

analysis::Slicer* Reasoner::slicer() {
  if (slicer_ == nullptr) {
    slicer_ = std::make_unique<analysis::Slicer>(db_);
  }
  return slicer_.get();
}

void Reasoner::EnableCertification(bool on) {
  if (certify_ == on) return;
  certify_ = on;
  // Engines capture the sink pointer at construction; rebuild them so it
  // attaches (or detaches) everywhere.
  InvalidateCaches();
}

void Reasoner::CheckCertificate(const analysis::Certificate& cert) {
  ++cert_stats_.emitted;
  Status s = analysis::VerifyCertificate(cert);
  if (s.ok()) {
    ++cert_stats_.accepted;
  } else {
    ++cert_stats_.rejected;
    if (cert_failures_.size() < 16) cert_failures_.push_back(s.ToString());
  }
}

void Reasoner::DrainHcfCertificates() {
  if (hcf_cert_sink_->empty()) return;
  for (const analysis::Certificate& c : *hcf_cert_sink_) CheckCertificate(c);
  hcf_cert_sink_->clear();
}

const analysis::ProgramProperties& Reasoner::properties() {
  if (!props_.has_value()) props_ = analysis::Analyze(db_);
  return *props_;
}

analysis::FastPathEngine* Reasoner::fast_engine() {
  if (fast_ == nullptr) {
    fast_ = std::make_unique<analysis::FastPathEngine>(db_);
  }
  return fast_.get();
}

Reasoner::Routed Reasoner::RouteLiteral(SemanticsKind kind, Lit l,
                                        QuerySpan* span) {
  Routed rt;
  if (!opts_.analysis_dispatch) {
    rt.engine = Get(kind);
    return rt;
  }
  const analysis::ProgramProperties& props = properties();
  analysis::QueryShape shape;
  std::optional<analysis::SliceResult> slice;
  if (analysis::SliceIsSound(props, kind, partition_.has_value())) {
    slice = slicer()->Cone({l.var()});
    shape.proper_slice = slice->proper;
  }
  rt.path = analysis::SelectPath(props, kind, analysis::QueryKind::kLiteral, l,
                                 partition_.has_value(), &shape);
  span->Record(rt.path);
  switch (rt.path) {
    case analysis::EnginePath::kSliceLiteral:
      if (certify_) {
        analysis::Certificate cert;
        cert.kind = analysis::CertificateKind::kSliceRelevance;
        cert.db = db_;
        cert.roots = {l.var()};
        cert.relevant = slice->relevant;
        cert.slice_clauses = slice->clause_indices;
        CheckCertificate(cert);
      }
      RouteToSlice(kind, *slice, &rt);
      return rt;
    case analysis::EnginePath::kHcfUnfounded:
      rt.engine = GetHcf(kind);
      return rt;
    case analysis::EnginePath::kGeneric:
      rt.engine = Get(kind);
      return rt;
    default:
      // Polynomial fast path; FastPathEngine serves it, engine stays null.
      return rt;
  }
}

Reasoner::Routed Reasoner::RouteFormula(SemanticsKind kind, const Formula& f,
                                        QuerySpan* span) {
  Routed rt;
  if (!opts_.analysis_dispatch) {
    rt.engine = Get(kind);
    return rt;
  }
  const analysis::ProgramProperties& props = properties();
  analysis::QueryShape shape;
  std::optional<analysis::SliceResult> mod;
  std::vector<Var> roots;
  if (analysis::SliceIsSound(props, kind, partition_.has_value())) {
    Interpretation atoms(db_.num_vars());
    f->CollectAtoms(&atoms);
    roots = atoms.TrueAtoms();
    // A formula may range over several cones (e.g. "a | b" with unrelated
    // a, b); the union of their *modules* is the smallest head-closed
    // restriction that provably preserves the joint model set.
    mod = slicer()->ModuleUnion(roots);
    shape.proper_module = mod->proper;
  }
  rt.path =
      analysis::SelectPath(props, kind, analysis::QueryKind::kFormula, Lit(),
                           partition_.has_value(), &shape);
  span->Record(rt.path);
  switch (rt.path) {
    case analysis::EnginePath::kModuleFormula:
      if (certify_) {
        analysis::Certificate cert;
        cert.kind = analysis::CertificateKind::kSliceRelevance;
        cert.db = db_;
        cert.roots = roots;
        cert.relevant = mod->relevant;
        cert.slice_clauses = mod->clause_indices;
        CheckCertificate(cert);
      }
      RouteToSlice(kind, *mod, &rt);
      return rt;
    case analysis::EnginePath::kHcfUnfounded:
      rt.engine = GetHcf(kind);
      return rt;
    case analysis::EnginePath::kGeneric:
      rt.engine = Get(kind);
      return rt;
    default:
      return rt;
  }
}

Reasoner::Routed Reasoner::RouteHasModel(SemanticsKind kind,
                                         QuerySpan* span) {
  Routed rt;
  if (!opts_.analysis_dispatch) {
    rt.engine = Get(kind);
    return rt;
  }
  rt.path = analysis::SelectPath(properties(), kind,
                                 analysis::QueryKind::kHasModel, Lit(),
                                 partition_.has_value());
  span->Record(rt.path);
  if (rt.path == analysis::EnginePath::kGeneric) rt.engine = Get(kind);
  return rt;
}

Result<Formula> Reasoner::ParseQueryFormula(std::string_view formula) {
  int before = db_.num_vars();
  DD_ASSIGN_OR_RETURN(Formula f, ParseFormula(formula, &db_.vocabulary()));
  if (db_.num_vars() != before) InvalidateCaches();
  return f;
}

Var Reasoner::InternQueryAtom(const std::string& name) {
  Vocabulary& voc = db_.vocabulary();
  const Var known = voc.Find(name);
  if (known != kInvalidVar) return known;
  const Var v = voc.Intern(name);
  InvalidateCaches();
  return v;
}

namespace {

/// Builds the shared budget of one query or one batch: null when no axis
/// is limited and nothing can cancel it.
std::shared_ptr<Budget> MakeBudget(const Budget::Limits& lim,
                                   std::shared_ptr<CancelToken> cancel) {
  if (lim.deadline_ms < 0 && lim.conflict_budget < 0 &&
      lim.oracle_call_budget < 0 && cancel == nullptr) {
    return nullptr;
  }
  return Budget::Make(lim, std::move(cancel));
}

/// RAII installer for a per-query trace (QueryOptions::trace): installed
/// on the engine for exactly one call, then the reasoner-level trace (the
/// fallback, possibly null) is restored.
class ScopedTrace {
 public:
  ScopedTrace(Semantics* s, obs::TraceContext* per_query,
              obs::TraceContext* fallback)
      : s_(s), restore_(fallback) {
    if (per_query != nullptr && per_query != fallback) {
      installed_ = true;
      s_->SetTrace(per_query);
    }
  }
  ~ScopedTrace() {
    if (installed_) s_->SetTrace(restore_);
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  Semantics* s_;
  obs::TraceContext* restore_;
  bool installed_ = false;
};

/// RAII installer: the budget lives on the engine exactly for one query;
/// removal clears latched interrupts so the engine answers unbudgeted
/// queries normally afterwards.
class ScopedBudget {
 public:
  ScopedBudget(Semantics* s, std::shared_ptr<Budget> b) : s_(s) {
    if (b != nullptr) {
      installed_ = true;
      s_->SetBudget(std::move(b));
    }
  }
  ~ScopedBudget() {
    if (installed_) s_->SetBudget(nullptr);
  }
  ScopedBudget(const ScopedBudget&) = delete;
  ScopedBudget& operator=(const ScopedBudget&) = delete;

 private:
  Semantics* s_;
  bool installed_ = false;
};

/// Budget exhaustion degrades to kUnknown; every other Status propagates.
Result<Trilean> ToTrilean(const Result<bool>& r) {
  if (r.ok()) return TrileanFromBool(*r);
  if (r.status().IsBudgetExhaustion()) return Trilean::kUnknown;
  return r.status();
}

}  // namespace

/// The per-query environment of one engine call: q's trace and a fresh
/// budget built from q, installed on `s` for the scope and attributed to
/// `span`, which takes the engine's report when the scope closes. With
/// default QueryOptions only the report remains.
class Reasoner::EngineScope {
 public:
  EngineScope(Semantics* s, const QueryOptions& q,
              obs::TraceContext* fallback, QuerySpan* span)
      : s_(s),
        span_(span),
        traced_(s, q.trace, fallback),
        budget_(s, span->AttachBudget(MakeBudget(
                       {q.deadline_ms, q.conflict_budget,
                        q.oracle_call_budget},
                       q.cancel))) {}
  ~EngineScope() { span_->Fold(s_); }
  EngineScope(const EngineScope&) = delete;
  EngineScope& operator=(const EngineScope&) = delete;

 private:
  Semantics* s_;
  QuerySpan* span_;
  ScopedTrace traced_;
  ScopedBudget budget_;
};

Result<std::vector<Interpretation>> Reasoner::Models(SemanticsKind kind,
                                                     int64_t cap) {
  QuerySpan span(this, trace_, "Models", kind);
  Semantics* s = Get(kind);
  EngineScope scope(s, QueryOptions{}, trace_, &span);
  return s->Models(cap);
}

Result<bool> Reasoner::LiteralQuery(SemanticsKind kind,
                                    std::string_view literal,
                                    const QueryOptions& q) {
  // Parse first: interning a fresh atom invalidates the engine cache, and
  // the budget must be installed on the engine that runs the query.
  int before = db_.num_vars();
  DD_ASSIGN_OR_RETURN(Lit l, ParseLiteral(literal, &db_.vocabulary()));
  if (db_.num_vars() != before) InvalidateCaches();
  QuerySpan span(this, q.trace != nullptr ? q.trace : trace_, "InfersLiteral",
                 kind);
  Routed rt = RouteLiteral(kind, l, &span);
  // Polynomial fast path: completes without oracle calls, so the budget is
  // irrelevant and the exact answer stands.
  if (rt.engine == nullptr) return fast_engine()->InfersLiteral(rt.path, l);
  EngineScope scope(rt.engine, q, trace_, &span);
  Result<bool> r = rt.engine->InfersLiteral(rt.Local(l));
  DrainHcfCertificates();
  return r;
}

Result<bool> Reasoner::FormulaQuery(SemanticsKind kind,
                                    std::string_view formula,
                                    const QueryOptions& q) {
  DD_ASSIGN_OR_RETURN(Formula f, ParseQueryFormula(formula));
  QuerySpan span(this, q.trace != nullptr ? q.trace : trace_, "InfersFormula",
                 kind);
  Routed rt = RouteFormula(kind, f, &span);
  if (rt.engine == nullptr) return fast_engine()->InfersFormula(rt.path, f);
  EngineScope scope(rt.engine, q, trace_, &span);
  Result<bool> r = rt.engine->InfersFormula(rt.Local(f));
  DrainHcfCertificates();
  return r;
}

Result<bool> Reasoner::HasModelQuery(SemanticsKind kind,
                                     const QueryOptions& q) {
  QuerySpan span(this, q.trace != nullptr ? q.trace : trace_, "HasModel",
                 kind);
  Routed rt = RouteHasModel(kind, &span);
  if (rt.engine == nullptr) return fast_engine()->HasModel(rt.path);
  EngineScope scope(rt.engine, q, trace_, &span);
  Result<bool> r = rt.engine->HasModel();
  DrainHcfCertificates();
  return r;
}

Result<bool> Reasoner::InfersLiteral(SemanticsKind kind,
                                     std::string_view literal) {
  return LiteralQuery(kind, literal, QueryOptions{});
}

Result<bool> Reasoner::InfersFormula(SemanticsKind kind,
                                     std::string_view formula) {
  return FormulaQuery(kind, formula, QueryOptions{});
}

Result<bool> Reasoner::HasModel(SemanticsKind kind) {
  return HasModelQuery(kind, QueryOptions{});
}

Result<Trilean> Reasoner::InfersLiteral(SemanticsKind kind,
                                        std::string_view literal,
                                        const QueryOptions& q) {
  return ToTrilean(LiteralQuery(kind, literal, q));
}

Result<Trilean> Reasoner::InfersFormula(SemanticsKind kind,
                                        std::string_view formula,
                                        const QueryOptions& q) {
  return ToTrilean(FormulaQuery(kind, formula, q));
}

Result<Trilean> Reasoner::HasModel(SemanticsKind kind, const QueryOptions& q) {
  return ToTrilean(HasModelQuery(kind, q));
}

Result<ModelsAnswer> Reasoner::Models(SemanticsKind kind, int64_t cap,
                                      const QueryOptions& q) {
  QuerySpan span(this, q.trace != nullptr ? q.trace : trace_, "Models", kind);
  Semantics* s = Get(kind);
  EngineScope scope(s, q, trace_, &span);
  Result<std::vector<Interpretation>> r = s->Models(cap);
  ModelsAnswer out;
  if (r.ok()) {
    out.models = std::move(*r);
    return out;
  }
  if (r.status().IsBudgetExhaustion()) {
    // Anytime payload: each model the engine had already collected IS an
    // intended model; only the enumeration was cut short.
    out.models = s->TakePartialModels();
    out.truncated = true;
    out.reason = r.status();
    return out;
  }
  return r.status();
}

Result<Trilean> Reasoner::InfersCredulously(SemanticsKind kind,
                                            std::string_view formula,
                                            const QueryOptions& q) {
  DD_ASSIGN_OR_RETURN(Formula f, ParseQueryFormula(formula));
  QuerySpan span(this, q.trace != nullptr ? q.trace : trace_,
                 "InfersCredulously", kind);
  Semantics* s = Get(kind);
  EngineScope scope(s, q, trace_, &span);
  return ToTrilean(s->InfersCredulously(f));
}

Result<std::optional<Interpretation>> Reasoner::FindCounterexample(
    SemanticsKind kind, std::string_view formula, const QueryOptions& q) {
  DD_ASSIGN_OR_RETURN(Formula f, ParseQueryFormula(formula));
  QuerySpan span(this, q.trace != nullptr ? q.trace : trace_,
                 "FindCounterexample", kind);
  Semantics* s = Get(kind);
  EngineScope scope(s, q, trace_, &span);
  return s->FindCounterexample(f);
}

uint64_t Reasoner::fingerprint() {
  // Clauses are immutable for the reasoner's lifetime and query-interned
  // atoms never appear in clauses, so the fingerprint is computed once and
  // survives InvalidateCaches().
  if (!fingerprint_.has_value()) {
    fingerprint_ = DatabaseFingerprint(db_);
  }
  return *fingerprint_;
}

const ground::TupleIndex& Reasoner::mention_index(bool* built) {
  if (built != nullptr) *built = !mention_index_.has_value();
  if (!mention_index_.has_value()) {
    mention_index_ = ground::IndexDatabase(db_);
  }
  return *mention_index_;
}

Result<batch::BatchAnswer> Reasoner::AnswerBatch(
    SemanticsKind kind, const std::vector<batch::BatchQuery>& queries,
    const batch::BatchOptions& bopts) {
  return AnswerBatchImpl(kind, queries, bopts, batch::BatchMode::kSkeptical);
}

Result<batch::BatchAnswer> Reasoner::AnswerBatchCredulous(
    SemanticsKind kind, const std::vector<batch::BatchQuery>& queries,
    const batch::BatchOptions& bopts) {
  return AnswerBatchImpl(kind, queries, bopts, batch::BatchMode::kBrave);
}

Result<batch::BatchAnswer> Reasoner::AnswerBatchImpl(
    SemanticsKind kind, const std::vector<batch::BatchQuery>& queries,
    const batch::BatchOptions& bopts, batch::BatchMode mode) {
  const bool brave = mode == batch::BatchMode::kBrave;
  // Parse everything up front (one vocabulary pass; fresh atoms invalidate
  // engine caches exactly once, before any engine is built). Pre-built
  // queries skip the parser; their atoms were interned when they were
  // built, through InternQueryAtom.
  const int vars_before = db_.num_vars();
  std::vector<Formula> parsed;
  parsed.reserve(queries.size());
  for (const batch::BatchQuery& q : queries) {
    if (q.formula != nullptr) {
      parsed.push_back(q.formula);  // pre-built over this vocabulary
    } else if (q.is_literal) {
      DD_ASSIGN_OR_RETURN(Lit l, ParseLiteral(q.text, &db_.vocabulary()));
      parsed.push_back(FormulaNode::MakeLit(l));
    } else {
      DD_ASSIGN_OR_RETURN(Formula f, ParseFormula(q.text, &db_.vocabulary()));
      parsed.push_back(std::move(f));
    }
  }
  if (db_.num_vars() != vars_before) InvalidateCaches();

  QuerySpan span(this, bopts.trace != nullptr ? bopts.trace : trace_,
                 brave ? "AnswerBatchCredulous" : "AnswerBatch", kind);
  batch::BatchStats bs;
  bs.queries = static_cast<int64_t>(queries.size());

  // Canonicalize, split and dedupe into the unique query list. Skeptical
  // inference distributes over ∧, brave over ∨ (see SplitConjuncts /
  // SplitDisjuncts), so each mode splits its own connective; the split
  // parts recompose below by the matching Kleene connective.
  std::vector<batch::CanonicalQuery> uniq;
  std::vector<std::vector<int>> parts_of(queries.size());
  std::unordered_map<std::string, int> index_of;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<Formula> parts = brave ? batch::SplitDisjuncts(parsed[i])
                                       : batch::SplitConjuncts(parsed[i]);
    if (parts.size() > 1) {
      if (brave) {
        ++bs.disjunct_splits;
      } else {
        ++bs.conjunct_splits;
      }
    }
    for (const Formula& part : parts) {
      batch::CanonicalQuery cq =
          batch::CanonicalizeSimplified(part, db_.vocabulary());
      auto [it, inserted] =
          index_of.emplace(cq.key, static_cast<int>(uniq.size()));
      if (inserted) {
        uniq.push_back(std::move(cq));
      } else {
        ++bs.dedup_hits;
      }
      parts_of[i].push_back(it->second);
    }
  }
  bs.unique_queries = static_cast<int64_t>(uniq.size());

  // The answer cache (external override > reasoner-owned > disabled),
  // epoch-pinned to this database's fingerprint.
  batch::AnswerCache* cache = bopts.cache;
  if (cache == nullptr && bopts.use_answer_cache) {
    if (answer_cache_ == nullptr) {
      answer_cache_ = std::make_unique<batch::AnswerCache>();
    }
    cache = answer_cache_.get();
  }
  // Banks answer only where the mode's soundness gate allows (not PDSM)
  // and the cap is positive.
  const bool banks =
      bopts.model_bank_cap > 0 &&
      (brave ? batch::BraveBankIsSound(kind) : batch::BankIsSound(kind));
  // The cross-batch model-bank store (external override > reasoner-owned
  // > disabled). Disabled for a custom CCWA/ECWA partition — the store
  // key cannot see partitions — and wherever banks are off.
  batch::ModelBankStore* store = bopts.bank_store;
  if (store == nullptr && bopts.use_bank_store) {
    if (bank_store_ == nullptr) {
      bank_store_ = std::make_unique<batch::ModelBankStore>(
          bopts.bank_store_capacity);
    }
    store = bank_store_.get();
  }
  if (partition_.has_value() || !banks) store = nullptr;

  // The batch counts its own cache and store traffic call by call, so its
  // counters stay its own when the structures are shared with others.
  uint64_t fp = 0;
  if (cache != nullptr || store != nullptr) fp = fingerprint();
  if (cache != nullptr) bs.cache_invalidations += cache->SetEpoch(fp);
  if (store != nullptr) bs.bank_store_invalidations += store->SetEpoch(fp);

  std::vector<Trilean> uniq_answers(uniq.size(), Trilean::kUnknown);
  std::vector<std::optional<Interpretation>> uniq_witnesses(
      bopts.collect_witnesses ? uniq.size() : 0);
  std::vector<char> answered(uniq.size(), 0);
  std::vector<std::string> cache_keys(uniq.size());
  std::vector<int> pending;
  for (size_t u = 0; u < uniq.size(); ++u) {
    // Constants that hold regardless of the model set need no engine:
    // skeptical ⊤ (true in every model, vacuously so without models) and
    // brave ⊥ (no model satisfies it, with or without models). The duals
    // do NOT short-circuit — skeptical ⊥ is vacuously inferred and brave
    // ⊤ refuted exactly when the database is semantics-inconsistent,
    // which only the engine can decide.
    if (uniq[u].f->kind() == FormulaKind::kConst &&
        uniq[u].f->const_value() != brave) {
      uniq_answers[u] = brave ? Trilean::kNo : Trilean::kYes;
      answered[u] = 1;
      continue;
    }
    if (cache != nullptr) {
      cache_keys[u] = batch::AnswerCache::MakeKey(fp, kind, uniq[u].key,
                                                  brave);
      // Witness collection bypasses cache reads: a hit carries no
      // certifying model. (Definite answers still get inserted below.)
      if (!bopts.collect_witnesses) {
        if (std::optional<Trilean> hit = cache->Lookup(cache_keys[u])) {
          ++bs.cache_hits;
          uniq_answers[u] = *hit;
          answered[u] = 1;
          continue;
        }
        ++bs.cache_misses;
      }
    }
    pending.push_back(static_cast<int>(u));
  }

  // Group survivors by relevance module, choose each group's evaluation,
  // and evaluate, groups in parallel under one whole-batch budget.
  std::vector<batch::PlannedGroup> plan = batch::PlanGroups(
      opts_.analysis_dispatch ? slicer() : nullptr, properties(), kind, mode,
      banks, partition_.has_value(), uniq, pending);
  bs.groups = static_cast<int64_t>(plan.size());

  std::shared_ptr<Budget> budget =
      MakeBudget({bopts.deadline_ms, bopts.conflict_budget,
                  bopts.oracle_call_budget},
                 bopts.cancel);
  if (budget != nullptr) span.AttachBudget(budget);

  std::vector<batch::GroupRequest> requests(plan.size());
  std::vector<std::string> store_keys(plan.size());
  // Module groups run in their own compact numbering: their queries are
  // renamed into it, and witnesses map back through `to_parent` (the
  // compact sub-database's atoms, or the module atoms a stored bank is
  // numbered over); null for whole-database groups, which keep db_'s.
  std::vector<std::vector<batch::CanonicalQuery>> local_queries(plan.size());
  std::vector<const std::vector<Var>*> to_parent(plan.size(), nullptr);
  std::vector<const CompactSlice*> compact(plan.size(), nullptr);
  for (size_t g = 0; g < plan.size(); ++g) {
    batch::GroupRequest& req = requests[g];
    req.kind = kind;
    req.opts = opts_;
    // Group engines are single-threaded (the batch parallelizes across
    // groups), untraced (their counters fold into the reasoner totals
    // below), and certificate-free (per-group temporaries cannot feed the
    // reasoner's sink safely from worker threads).
    req.opts.num_threads = 1;
    req.opts.hcf_certificates = nullptr;
    // Sub-databases of an HCF database stay HCF; the engine re-verifies
    // applicability itself (same composition as RouteToSlice).
    if (!plan[g].whole_db) req.opts.hcf_minimality = true;
    req.partition = partition_.has_value() ? &*partition_ : nullptr;
    req.budget = budget;
    req.model_bank_cap = bopts.model_bank_cap;
    req.mode = mode;
    req.collect_witnesses = bopts.collect_witnesses;
    // Cross-batch bank reuse: probe the store for this group's bank,
    // direct groups included — a stored bank answers a group of any size
    // (lookups and inserts run on the caller's thread — the store is not
    // thread-safe). A module bank is keyed on the module's OWN
    // fingerprint and atom order, so a module shared by two
    // differently-shaped batches, or by two reasoners numbering its atoms
    // alike, hits the same bank. Whole-database banks keep db_'s
    // numbering; their width floor guards Interpretation::Contains
    // against queries whose atoms were interned after the bank was built.
    const int64_t cap = batch::EffectiveBankCap(bopts.model_bank_cap,
                                                req.opts);
    if (plan[g].whole_db) {
      req.db = &db_;
      for (int u : plan[g].query_indices) req.queries.push_back(&uniq[u]);
      if (store != nullptr) {
        store_keys[g] = batch::ModelBankStore::MakeKey(
            fp, whole_atom_order(), kind, cap);
        int min_vars = 0;
        for (int u : plan[g].query_indices) {
          for (Var v : uniq[u].roots) {
            min_vars = std::max(min_vars, static_cast<int>(v) + 1);
          }
        }
        req.bank = store->Lookup(store_keys[g], min_vars);
      }
    } else {
      // A store hit materializes nothing: the key needs only the
      // footprint's fingerprint and atom order, and a stored bank is
      // numbered over the module atoms, where the group's query-only
      // atoms read false.
      CompactSlice* cs = GetCompactSlice(plan[g].slice);
      compact[g] = cs;
      if (store != nullptr) {
        store_keys[g] = batch::ModelBankStore::MakeKey(
            cs->fingerprint, cs->atom_order, kind, cap);
        req.bank = store->Lookup(store_keys[g], 0);
      }
      if (req.bank != nullptr) {
        to_parent[g] = &cs->module_atoms;
      } else {
        if (!cs->sub.has_value()) {
          cs->sub = slicer()->MakeSubDatabase(plan[g].slice);
        }
        req.db = &cs->sub->db;
        to_parent[g] = &cs->sub->to_parent;
      }
      local_queries[g].reserve(plan[g].query_indices.size());
      for (int u : plan[g].query_indices) {
        local_queries[g].push_back(batch::RenameQuery(uniq[u], *to_parent[g]));
      }
      for (const batch::CanonicalQuery& q : local_queries[g]) {
        req.queries.push_back(&q);
      }
    }
    if (req.bank != nullptr) plan[g].eval = batch::GroupEval::kStoredBank;
    req.eval = plan[g].eval;
    if (store != nullptr) {
      req.export_bank = req.eval == batch::GroupEval::kNewBank;
      ++(req.bank != nullptr ? bs.bank_store_hits : bs.bank_store_misses);
    }
  }

  const int threads = bopts.num_threads <= 0 ? ThreadPool::DefaultThreads()
                                             : bopts.num_threads;
  std::vector<batch::GroupResult> results(plan.size());
  const CancelToken* cancel =
      budget != nullptr ? budget->cancel_token().get() : nullptr;
  ParallelFor(static_cast<int64_t>(plan.size()), threads, cancel,
              [&](int64_t g) { results[g] = batch::EvaluateGroup(requests[g]); });

  // Merge in plan order (deterministic in the thread count). Each group
  // engine's report folds into the span and the totals, as a single
  // query's engine report does.
  Status first_error;
  for (size_t g = 0; g < plan.size(); ++g) {
    const batch::GroupResult& res = results[g];
    span.Fold(res.stats, res.session_stats);
    if (!res.error.ok() && first_error.ok()) first_error = res.error;
    const bool evaluated =
        res.answers.size() == plan[g].query_indices.size();
    if (evaluated && res.used_bank) {
      ++bs.bank_groups;
      bs.bank_models += res.bank_models;
    } else if (evaluated) {
      ++bs.fallback_groups;
    }
    if (evaluated && !res.bank_from_store) {
      bs.group_atoms += requests[g].db->num_vars();
    }
    // A complete bank built on a store miss feeds the store for later
    // batches; EvaluateGroup never exports truncated banks, and Insert
    // itself refuses them (defense in depth, counted). A module bank is
    // stored over the module atoms: when the group's query-only atoms
    // widened its compact numbering, the bank is renumbered first.
    if (store != nullptr && res.built_bank != nullptr) {
      std::shared_ptr<const batch::ModelBank> bank = res.built_bank;
      if (compact[g] != nullptr &&
          to_parent[g]->size() != compact[g]->module_atoms.size()) {
        bank = batch::RenumberBank(*bank, *to_parent[g],
                                   compact[g]->module_atoms);
      }
      const auto ins = store->Insert(store_keys[g], std::move(bank));
      bs.bank_store_insertions += ins.added;
      bs.bank_store_evictions += ins.evictions;
      bs.bank_store_truncated_rejected += ins.rejected;
    }
    for (size_t k = 0; k < plan[g].query_indices.size(); ++k) {
      const int u = plan[g].query_indices[k];
      // A group skipped by budget cancellation leaves its slots kUnknown.
      uniq_answers[u] = evaluated ? res.answers[k] : Trilean::kUnknown;
      answered[u] = 1;
      if (bopts.collect_witnesses && evaluated &&
          k < res.witnesses.size() && res.witnesses[k].has_value()) {
        uniq_witnesses[u] =
            to_parent[g] == nullptr
                ? *res.witnesses[k]
                : analysis::LiftToParent(*res.witnesses[k], *to_parent[g],
                                         db_.num_vars());
      }
    }
  }
  if (!first_error.ok()) return first_error;

  // Cache only answers computed this batch (hits are already stored);
  // Insert itself refuses kUnknown.
  if (cache != nullptr) {
    for (int u : pending) {
      const auto ins = cache->Insert(cache_keys[u], uniq_answers[u]);
      bs.cache_insertions += ins.added;
      bs.cache_evictions += ins.evictions;
    }
  }

  // Compose per-input answers by the mode's Kleene connective: AND over
  // conjuncts (skeptical distributes over ∧), OR over disjuncts (brave
  // distributes over ∨). The decisive value dominates kUnknown in both.
  // The first decisive part's witness certifies the composition: a
  // counterexample to one conjunct violates the conjunction, a model of
  // one disjunct satisfies the disjunction.
  const Trilean decisive = brave ? Trilean::kYes : Trilean::kNo;
  batch::BatchAnswer out;
  out.answers.reserve(queries.size());
  if (bopts.collect_witnesses) out.witnesses.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    Trilean acc = brave ? Trilean::kNo : Trilean::kYes;
    for (int u : parts_of[i]) {
      if (uniq_answers[u] == decisive) {
        acc = decisive;
        if (bopts.collect_witnesses) out.witnesses[i] = uniq_witnesses[u];
        break;
      }
      if (uniq_answers[u] == Trilean::kUnknown) acc = Trilean::kUnknown;
    }
    if (acc == Trilean::kUnknown) ++bs.unknowns;
    out.answers.push_back(acc);
  }

  span.AddCounter("batch_queries", bs.queries);
  span.AddCounter("batch_unique", bs.unique_queries);
  span.AddCounter("batch_groups", bs.groups);
  span.AddCounter("batch_bank_groups", bs.bank_groups);
  span.AddCounter("batch_bank_store_hits", bs.bank_store_hits);
  span.AddCounter("batch_cache_hits", bs.cache_hits);
  span.AddCounter("batch_unknowns", bs.unknowns);
  span.AddCounter("batch_group_atoms", bs.group_atoms);

  batch_total_.Add(bs);
  out.stats = bs;
  return out;
}

void Reasoner::PublishMetrics(obs::MetricsRegistry* reg) const {
  obs::Publish(TotalStats(), reg);
  obs::Publish(dispatch_stats_, reg);
  obs::Publish(TotalSessionStats(), reg);
  batch::Publish(batch_total_, reg);
}

}  // namespace dd
