#include "minimal/minimal_models.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "minimal/hcf.h"
#include "oracle/sat_session.h"
#include "sat/solver.h"
#include "strat/dependency_graph.h"
#include "util/macros.h"
#include "util/thread_pool.h"

namespace dd {

namespace {

using sat::SolveResult;

// The clause excluding the "region" of a minimal projection: models M''
// with M''∩P ⊇ p* and M''∩Q = q*. Empty iff the region is the whole model
// space, in which case the caller must stop instead of asserting it.
std::vector<Lit> RegionBlockClause(const Interpretation& proj,
                                   const Partition& pqz) {
  std::vector<Lit> block;
  for (Var v : proj.TrueAtoms()) {
    if (pqz.p.Contains(v)) block.push_back(Lit::Neg(v));
  }
  for (Var v = 0; v < pqz.num_vars(); ++v) {
    if (!pqz.q.Contains(v)) continue;
    block.push_back(proj.Contains(v) ? Lit::Neg(v) : Lit::Pos(v));
  }
  return block;
}

// Fixes the (P,Q)-projection of `m` as unit assumptions (Z left free).
std::vector<Lit> ProjectionAssumptions(const Interpretation& m,
                                       const Partition& pqz) {
  std::vector<Lit> out;
  for (Var v = 0; v < pqz.num_vars(); ++v) {
    if (pqz.p.Contains(v) || pqz.q.Contains(v)) {
      out.push_back(Lit::Make(v, m.Contains(v)));
    }
  }
  return out;
}

}  // namespace

MinimalEngine::MinimalEngine(const Database& db, const MinimalOptions& opts)
    : db_(db), opts_(opts) {
  cache_.SetCapacity(opts_.oracle_cache_cap);
  proj_store_.SetCapacity(opts_.projection_stream_cap);
}

oracle::SatSession* MinimalEngine::session() {
  if (!opts_.use_sessions) return nullptr;
  if (!session_) {
    session_ = std::make_unique<oracle::SatSession>(db_);
    session_->SetBudget(opts_.budget);
  }
  return session_.get();
}

void MinimalEngine::SetBudget(std::shared_ptr<Budget> budget) {
  opts_.budget = std::move(budget);
  if (session_) session_->SetBudget(opts_.budget);
  ClearInterrupt();
}

void MinimalEngine::MarkInterrupted() {
  if (interrupted_) return;
  interrupted_ = true;
  Status s = opts_.budget ? opts_.budget->ToStatus() : Status::OK();
  interrupt_status_ =
      s.ok() ? Status::ResourceExhausted(
                   "NP oracle returned unknown (conflict budget or fault)")
             : s;
}

oracle::SessionStats MinimalEngine::session_stats() const {
  oracle::SessionStats out;
  if (session_) out = session_->stats();
  out.cache_hits += cache_.hits() + memo_hits_;
  out.cache_misses += cache_.misses();
  out.cache_evictions += cache_.evictions() + proj_store_.evictions();
  return out;
}

// ---------------------------------------------------------------------------
// OpScope: one "minimal"-layer span per outermost public operation.
// ---------------------------------------------------------------------------

MinimalEngine::OpScope::OpScope(MinimalEngine* e, const char* name) : e_(e) {
  if (e_->opts_.trace == nullptr) return;
  counted_ = true;
  if (e_->op_depth_++ > 0) return;  // nested op: fold into the outer span
  active_ = true;
  span_ = e_->opts_.trace->OpenSpan(name, "minimal");
  before_ = e_->stats_;
  sess_before_ = e_->session_stats();
}

MinimalEngine::OpScope::~OpScope() {
  if (!counted_) return;
  --e_->op_depth_;
  if (!active_) return;
  obs::TraceContext* t = e_->opts_.trace;
  const MinimalStats& s = e_->stats_;
  t->AddCounter(span_, "oracle_calls", s.sat_calls - before_.sat_calls);
  t->AddCounter(span_, "minimizations",
                s.minimizations - before_.minimizations);
  t->AddCounter(span_, "cegar_iterations",
                s.cegar_iterations - before_.cegar_iterations);
  t->AddCounter(span_, "models_enumerated",
                s.models_enumerated - before_.models_enumerated);
  if (e_->interrupted_) t->SetAttr(span_, "interrupted", "true");
  // Session activity attributable to this operation, as an "oracle"-layer
  // child span (parent inference: span_ is still open here). Only emitted
  // when something actually happened, so fresh-mode traces stay lean.
  const oracle::SessionStats after = e_->session_stats();
  const int64_t solves = after.solves - sess_before_.solves;
  const int64_t opened = after.contexts_opened - sess_before_.contexts_opened;
  const int64_t hits = after.cache_hits - sess_before_.cache_hits;
  const int64_t misses = after.cache_misses - sess_before_.cache_misses;
  const int64_t replayed =
      after.projections_replayed - sess_before_.projections_replayed;
  if (solves != 0 || opened != 0 || hits != 0 || misses != 0 ||
      replayed != 0) {
    int child = t->OpenSpan("oracle.session", "oracle");
    t->AddCounter(child, "solves", solves);
    t->AddCounter(child, "contexts_opened", opened);
    t->AddCounter(child, "cache_hits", hits);
    t->AddCounter(child, "cache_misses", misses);
    t->AddCounter(child, "projections_replayed", replayed);
    t->CloseSpan(child);
  }
  t->CloseSpan(span_);
}

// ---------------------------------------------------------------------------
// Public operations. Each runs its oracle calls through Query, so one body
// serves both modes; only session mode consults the memos (has_model_,
// cache_, proj_store_).
// ---------------------------------------------------------------------------

bool MinimalEngine::HasModel() {
  if (interrupted_) return false;
  OpScope op(this, "minimal.has_model");
  if (opts_.use_sessions && has_model_.has_value()) {
    ++memo_hits_;
    return *has_model_;
  }
  Query q(this, /*ctx=*/nullptr);  // the database alone: no guarded context
  SolveResult r = q.Solve();
  // No memoization from an interrupted call (Solve latched the interrupt):
  // the next (re-budgeted) HasModel must actually solve.
  if (r == SolveResult::kUnknown) return false;
  has_model_ = (r == SolveResult::kSat);
  if (*has_model_) found_model_ = q.Model(db_.num_vars());
  return *has_model_;
}

std::optional<Interpretation> MinimalEngine::FindModel() {
  if (interrupted_) return std::nullopt;
  OpScope op(this, "minimal.find_model");
  if (!HasModel()) return std::nullopt;
  if (interrupted_) return std::nullopt;
  return found_model_;
}

bool MinimalEngine::HcfEligible(const Partition& pqz) {
  if (!opts_.hcf_minimality) return false;
  // The founded <=> minimal equivalence is stated for subset-minimality
  // over ALL atoms; a custom <P;Q;Z> partition steps aside to the oracle.
  if (pqz.q.TrueCount() != 0 || pqz.z.TrueCount() != 0) return false;
  if (!hcf_applicable_) hcf_applicable_ = hcf::HcfApplicable(db_);
  return *hcf_applicable_;
}

const std::vector<int>& MinimalEngine::PosSccIds() {
  if (!pos_scc_) {
    DependencyGraph positive(db_, DepGraphOptions{/*link_heads=*/false,
                                                  /*include_negation=*/false});
    pos_scc_ = positive.SccIds();
  }
  return *pos_scc_;
}

std::optional<bool> MinimalEngine::TryHcfIsMinimal(const Interpretation& m,
                                                   const Partition& pqz) {
  if (!HcfEligible(pqz)) return std::nullopt;
  if (!IsModel(m)) return false;
  ++stats_.hcf_checks;
  hcf::FoundedResult f = hcf::CheckFounded(db_, m);
  if (opts_.hcf_certificates) {
    if (f.founded) {
      opts_.hcf_certificates->push_back(
          hcf::MakeMinimalCertificate(db_, m, f));
    } else {
      opts_.hcf_certificates->push_back(hcf::MakeNonMinimalCertificate(
          db_, m, hcf::ShrinkOnce(db_, m, f.unfounded, PosSccIds())));
    }
  }
  return f.founded;
}

std::optional<Interpretation> MinimalEngine::TryHcfMinimize(
    const Interpretation& m, const Partition& pqz) {
  if (!HcfEligible(pqz)) return std::nullopt;
  DD_CHECK(IsModel(m));
  ++stats_.minimizations;
  Interpretation cur = m;
  hcf::FoundedResult f;
  for (;;) {
    ++stats_.hcf_checks;
    f = hcf::CheckFounded(db_, cur);
    if (f.founded) break;
    cur = hcf::ShrinkOnce(db_, cur, f.unfounded, PosSccIds());
  }
  if (opts_.hcf_certificates) {
    opts_.hcf_certificates->push_back(
        hcf::MakeMinimalCertificate(db_, cur, f));
  }
  return cur;
}

bool MinimalEngine::IsMinimal(const Interpretation& m, const Partition& pqz) {
  if (interrupted_) return false;
  OpScope op(this, "minimal.is_minimal");
  if (std::optional<bool> h = TryHcfIsMinimal(m, pqz)) return *h;
  if (!IsModel(m)) return false;
  const bool memo = opts_.use_sessions;
  const Interpretation masked = oracle::MinimalityCache::MaskPQ(m, pqz);
  if (memo) {
    if (std::optional<bool> v = cache_.LookupVerdict(pqz, masked)) return *v;
  }
  // Search a model strictly below m in the <P;Z> preorder as one oracle
  // call: Q-values and absent P-atoms ride as assumptions, the "strictly
  // smaller" clause is the only query clause.
  Query q(this);
  std::vector<Lit> pins;
  std::vector<Lit> smaller;
  for (Var v = 0; v < db_.num_vars(); ++v) {
    if (pqz.q.Contains(v)) {
      pins.push_back(Lit::Make(v, m.Contains(v)));
    } else if (pqz.p.Contains(v)) {
      if (m.Contains(v)) {
        smaller.push_back(Lit::Neg(v));
      } else {
        pins.push_back(Lit::Neg(v));
      }
    }
  }
  bool minimal;
  if (smaller.empty()) {
    // m's P-part is empty: nothing below it.
    minimal = true;
  } else {
    q.AddClause(std::move(smaller));
    SolveResult r = q.Solve(pins);
    // Interrupted: the verdict is unknowable — and must NOT be cached.
    if (r == SolveResult::kUnknown) return false;
    minimal = (r == SolveResult::kUnsat);
  }
  if (memo) cache_.StoreVerdict(pqz, masked, minimal);
  return minimal;
}

Interpretation MinimalEngine::Minimize(const Interpretation& m,
                                       const Partition& pqz) {
  if (interrupted_) return m;
  OpScope op(this, "minimal.minimize");
  if (std::optional<Interpretation> h = TryHcfMinimize(m, pqz)) return *h;
  DD_CHECK(IsModel(m));
  ++stats_.minimizations;
  const bool memo = opts_.use_sessions;
  const Interpretation masked = oracle::MinimalityCache::MaskPQ(m, pqz);
  if (memo) {
    if (std::optional<Interpretation> c = cache_.LookupMinimized(pqz, masked)) {
      // The cached certificate was minimized under exactly these P/Q pins,
      // so it is a <P;Z>-minimal model below every Z-completion of the key.
      return *c;
    }
  }
  Query q(this);
  // Incremental descent: Q-values and absent P-atoms are assumption pins
  // (extended as atoms leave the candidate); each round's "strictly
  // smaller" clause is a query clause enabled through a fresh selector.
  std::vector<Lit> pins;
  for (Var v = 0; v < db_.num_vars(); ++v) {
    if (pqz.q.Contains(v)) pins.push_back(Lit::Make(v, m.Contains(v)));
    if (pqz.p.Contains(v) && !m.Contains(v)) pins.push_back(Lit::Neg(v));
  }
  Interpretation cur = m;
  std::vector<Lit> assumptions;
  for (;;) {
    std::vector<Var> true_p;
    for (Var v : cur.TrueAtoms()) {
      if (pqz.p.Contains(v)) true_p.push_back(v);
    }
    if (true_p.empty()) break;  // nothing left to remove
    Var sel = q.AllocVar();
    std::vector<Lit> clause{Lit::Neg(sel)};
    for (Var v : true_p) clause.push_back(Lit::Neg(v));
    q.AddClause(std::move(clause));
    assumptions = pins;
    assumptions.push_back(Lit::Pos(sel));
    SolveResult r = q.Solve(assumptions);
    // Interrupted mid-descent: cur may NOT be minimal. Return it as a
    // placeholder but skip every cache store below — caching it as minimal
    // would poison later (un-budgeted) queries.
    if (r == SolveResult::kUnknown) return cur;
    if (r != SolveResult::kSat) break;  // cur is minimal
    Interpretation found = q.Model(db_.num_vars());
    // Pin the freshly removed P-atoms false for all later rounds.
    for (Var v : true_p) {
      if (!found.Contains(v)) pins.push_back(Lit::Neg(v));
    }
    cur = found;
  }
  if (!memo) return cur;
  cache_.StoreMinimized(pqz, masked, cur);
  // Minimization doubles as a minimality check: cur is minimal, and m was
  // minimal iff the descent never moved off m's projection.
  const Interpretation cur_masked = oracle::MinimalityCache::MaskPQ(cur, pqz);
  cache_.StoreVerdict(pqz, cur_masked, true);
  if (!(cur_masked == masked)) cache_.StoreVerdict(pqz, masked, false);
  return cur;
}

std::vector<bool> MinimalEngine::AreMinimal(
    const std::vector<Interpretation>& candidates, const Partition& pqz,
    int threads) {
  const int64_t n = static_cast<int64_t>(candidates.size());
  std::vector<bool> out(candidates.size());
  if (n == 0 || interrupted_) return out;
  OpScope op(this, "minimal.are_minimal");
  // The chunk layout is a function of n alone — never of the worker count —
  // so the per-chunk engines (and therefore the merged statistics) are
  // identical for every `threads` value.
  const int64_t chunks = std::min<int64_t>(n, 16);
  std::vector<uint8_t> verdicts(candidates.size(), 0);
  std::vector<MinimalStats> chunk_stats(static_cast<size_t>(chunks));
  std::vector<Status> chunk_interrupts(static_cast<size_t>(chunks));
  // Cooperative cancellation: chunk engines share the query budget, so the
  // first chunk to exhaust it cancels the token and sibling slots stop
  // claiming work.
  const CancelToken* cancel =
      opts_.budget ? opts_.budget->cancel_token().get() : nullptr;
  // Chunk engines run untraced: their counters are folded into this
  // engine's stats (and thus into this operation's span) in chunk order,
  // which keeps the span tree bit-identical across thread counts.
  MinimalOptions chunk_opts = opts_;
  chunk_opts.trace = nullptr;
  // The certificate sink is a plain vector: chunk engines run detached so
  // parallel verdicts never race on it.
  chunk_opts.hcf_certificates = nullptr;
  ParallelFor(chunks, threads, cancel, [&](int64_t c) {
    const int64_t lo = c * n / chunks;
    const int64_t hi = (c + 1) * n / chunks;
    MinimalEngine local(db_, chunk_opts);
    for (int64_t i = lo; i < hi; ++i) {
      verdicts[static_cast<size_t>(i)] =
          local.IsMinimal(candidates[static_cast<size_t>(i)], pqz) ? 1 : 0;
      if (local.interrupted()) break;
    }
    if (local.interrupted()) {
      chunk_interrupts[static_cast<size_t>(c)] = local.interrupt_status();
    }
    chunk_stats[static_cast<size_t>(c)] = local.stats();
  });
  for (const MinimalStats& cs : chunk_stats) stats_.Add(cs);
  // Fold chunk interrupts in chunk order (first one wins); a cancelled run
  // also leaves unclaimed chunks, which is fine — the whole verdict vector
  // is meaningless once interrupted() is set.
  for (const Status& ci : chunk_interrupts) {
    if (!ci.ok()) {
      if (!interrupted_) {
        interrupted_ = true;
        interrupt_status_ = ci;
      }
      break;
    }
  }
  if (!interrupted_ && cancel != nullptr && cancel->cancelled()) {
    MarkInterrupted();
  }
  for (size_t i = 0; i < candidates.size(); ++i) out[i] = verdicts[i] != 0;
  return out;
}

int MinimalEngine::EnumerateMinimalProjections(
    const Partition& pqz, int64_t cap,
    const std::function<bool(const Interpretation&)>& cb) {
  if (interrupted_) return 0;
  OpScope op(this, "minimal.enumerate_projections");
  int emitted = 0;
  // Session mode memoizes the stream: replay its known prefix with zero SAT
  // calls, then resume discovery on its persistent context, whose guarded
  // region blocks are exactly the projections replayed. Fresh mode
  // enumerates from scratch on a dedicated solver.
  oracle::ProjectionStream* stream = nullptr;
  if (oracle::SatSession* s = session()) {
    stream = proj_store_.GetStream(pqz);
    for (const Interpretation& proj : *stream->projections) {
      if (cap >= 0 && emitted >= cap) return emitted;
      ++emitted;
      ++stats_.models_enumerated;
      ++s->stats().projections_replayed;
      if (!cb(proj)) return emitted;
    }
    if (stream->exhausted) return emitted;
    if (!stream->ctx) {
      stream->ctx = std::make_unique<oracle::SatSession::Context>(s);
      // Kept: a retiring context pins every variable allocated since it
      // opened, which includes the activation literals of streams still
      // live. Eviction retracts the stream by its activation alone.
      stream->ctx->Keep();
    }
  }
  Query q(this, stream != nullptr ? stream->ctx.get() : nullptr);
  for (;;) {
    if (cap >= 0 && emitted >= cap) break;
    SolveResult r = q.Solve();
    // Interrupted, NOT exhausted: a memoized stream stays resumable — a
    // retry with a fresh budget replays its prefix (zero SAT calls) and
    // continues discovery exactly where this run stopped.
    if (r == SolveResult::kUnknown) break;
    if (r != SolveResult::kSat) {
      if (stream != nullptr) stream->exhausted = true;
      break;
    }
    Interpretation mm = Minimize(q.Model(db_.num_vars()), pqz);
    // Minimization was cut short: mm may not be a minimal projection. Do
    // not record it in the stream or block its region.
    if (interrupted_) break;
    // An empty block means the region is the whole model space.
    std::vector<Lit> block = RegionBlockClause(mm, pqz);
    const bool last = block.empty();
    // Record the projection and its block BEFORE consulting the consumer,
    // so the stream stays consistent even on early exit.
    if (stream != nullptr) {
      stream->projections->push_back(mm);
      ++session_->stats().projections_discovered;
      if (last) stream->exhausted = true;
    }
    if (!last) q.AddClause(std::move(block));
    ++emitted;
    ++stats_.models_enumerated;
    if (!cb(mm) || last) break;
  }
  return emitted;
}

std::shared_ptr<const std::vector<Interpretation>>
MinimalEngine::SharedExhaustedProjections(const Partition& pqz) {
  if (!opts_.use_sessions) return nullptr;
  oracle::ProjectionStream* stream = proj_store_.FindStream(pqz);
  if (stream == nullptr || !stream->exhausted) return nullptr;
  return stream->projections;
}

int MinimalEngine::EnumerateAllMinimalModels(
    const Partition& pqz, int64_t cap,
    const std::function<bool(const Interpretation&)>& cb) {
  if (interrupted_) return 0;
  OpScope op(this, "minimal.enumerate_all_models");
  // Outer loop over (memoized) minimal projections; inner loop over
  // Z-completions, one query per projection.
  int emitted = 0;
  bool stop = false;
  EnumerateMinimalProjections(
      pqz, /*cap=*/-1, [&](const Interpretation& proj) {
        Query q(this);
        const std::vector<Lit> fixed = ProjectionAssumptions(proj, pqz);
        for (;;) {
          if (cap >= 0 && emitted >= cap) {
            stop = true;
            break;
          }
          SolveResult r = q.Solve(fixed);
          if (r == SolveResult::kUnknown) {
            stop = true;
            break;
          }
          if (r != SolveResult::kSat) break;
          Interpretation m = q.Model(db_.num_vars());
          ++emitted;
          ++stats_.models_enumerated;
          if (!cb(m)) {
            stop = true;
            break;
          }
          // Exclude exactly this Z-completion.
          std::vector<Lit> diff;
          for (Var v = 0; v < db_.num_vars(); ++v) {
            if (pqz.z.Contains(v)) {
              diff.push_back(m.Contains(v) ? Lit::Neg(v) : Lit::Pos(v));
            }
          }
          if (diff.empty()) break;  // no Z atoms: one completion only
          q.AddClause(std::move(diff));
        }
        return !stop;
      });
  return emitted;
}

bool MinimalEngine::MinimalEntails(const Formula& f, const Partition& pqz,
                                   Interpretation* counterexample) {
  if (interrupted_) return true;
  OpScope op(this, "minimal.entails");
  // Counterexample search: a <P;Z>-minimal model of DB violating F. The
  // Tseitin encoding, the ¬F clause and the region blocks are all clauses
  // of one query and vanish together when it ends.
  Query q(this);
  Var next = q.NextVar();
  std::vector<std::vector<Lit>> fcnf;
  Lit fl = TseitinEncode(f, &next, &fcnf);
  q.ReserveVars(next);
  for (auto& cl : fcnf) q.AddClause(std::move(cl));
  q.AddClause({~fl});  // assert ~F

  for (;;) {
    ++stats_.cegar_iterations;
    SolveResult r = q.Solve();
    // Unknown: placeholder answer; the caller must check interrupted().
    if (r != SolveResult::kSat) return true;  // or: no candidate remains
    Interpretation m = q.Model(db_.num_vars());
    bool minimal = IsMinimal(m, pqz);
    if (interrupted_) return true;
    if (minimal) {
      if (counterexample != nullptr) *counterexample = m;
      return false;  // m is a minimal model with ~F
    }
    Interpretation mm = Minimize(m, pqz);
    if (interrupted_) return true;
    // Does any model sharing mm's minimal projection violate F? Such a
    // model is itself minimal (minimality depends only on the projection).
    // The probe reuses this very query: fixing the (P,Q)-projection to mm's
    // values satisfies every asserted region block outright (mm was
    // minimized from a candidate that avoided them), so the blocks cannot
    // constrain the probe and the answer matches a block-free solver.
    SolveResult pr = q.Solve(ProjectionAssumptions(mm, pqz));
    // Without the probe's verdict we may not exclude this region: doing so
    // could hide a real counterexample and turn "Unknown" into a wrong
    // "entailed".
    if (pr == SolveResult::kUnknown) return true;
    if (pr == SolveResult::kSat) {
      if (counterexample != nullptr) *counterexample = q.Model(db_.num_vars());
      return false;
    }
    // No minimal counterexample in this region: exclude the region.
    std::vector<Lit> block = RegionBlockClause(mm, pqz);
    if (block.empty()) return true;
    q.AddClause(std::move(block));
  }
}

bool MinimalEngine::ExistsMinimalModelWith(Lit lit, const Partition& pqz,
                                           Interpretation* witness) {
  if (interrupted_) return false;
  OpScope op(this, "minimal.exists_minimal_with");
  Query q(this);
  q.AddClause({lit});
  for (;;) {
    ++stats_.cegar_iterations;
    SolveResult r = q.Solve();
    // Unknown: placeholder answer; the caller must check interrupted().
    if (r != SolveResult::kSat) return false;  // or: no candidate remains
    Interpretation m = q.Model(db_.num_vars());
    bool minimal = IsMinimal(m, pqz);
    if (interrupted_) return false;
    if (minimal) {
      if (witness != nullptr) *witness = m;
      return true;
    }
    Interpretation mm = Minimize(m, pqz);
    if (interrupted_) return false;
    // Some model with mm's projection satisfying lit would be minimal; the
    // probe reuses this query (region blocks are vacuous under the
    // projection pins, see MinimalEntails).
    SolveResult pr = q.Solve(ProjectionAssumptions(mm, pqz));
    // Excluding the region without the probe's verdict could hide a real
    // witness and turn "Unknown" into a wrong "no".
    if (pr == SolveResult::kUnknown) return false;
    if (pr == SolveResult::kSat) {
      if (witness != nullptr) *witness = q.Model(db_.num_vars());
      return true;
    }
    std::vector<Lit> block = RegionBlockClause(mm, pqz);
    if (block.empty()) return false;
    q.AddClause(std::move(block));
  }
}

Interpretation MinimalEngine::FreeAtoms(const Partition& pqz) {
  OpScope op(this, "minimal.free_atoms");
  const int n = db_.num_vars();
  Interpretation free(n);
  Interpretation determined(n);
  // Atoms never mentioned in a head cannot be true in a minimal model when
  // they are minimized; quick syntactic pre-pass.
  Interpretation in_heads(n);
  for (const Clause& c : db_.clauses()) {
    for (Var v : c.heads()) in_heads.Insert(v);
  }
  for (Var v = 0; v < n; ++v) {
    if (!pqz.p.Contains(v)) {
      determined.Insert(v);  // only P-atoms are classified
      continue;
    }
    if (!in_heads.Contains(v) && db_.IsDeductive()) {
      // In a DDDB, minimized atoms can only be supported through heads.
      determined.Insert(v);
    }
  }
  // Fast path (opts_.free_atoms_enum_cap): free P-atoms are exactly the
  // union of the minimal projections' P-parts, so when the (memoized)
  // stream is small one complete enumeration classifies every atom at
  // once — this is the fixed setup cost of GCWA/CCWA and of batch model
  // banks over them. A capped enumeration still settles the atoms it saw
  // before falling back to the per-atom witness loop.
  if (opts_.free_atoms_enum_cap > 0 && !interrupted_) {
    const int64_t cap = opts_.free_atoms_enum_cap;
    Interpretation seen(n);
    int got = EnumerateMinimalProjections(
        pqz, cap, [&](const Interpretation& m) {
          for (Var v : m.TrueAtoms()) {
            if (pqz.p.Contains(v)) seen.Insert(v);
          }
          return true;
        });
    if (interrupted_) return free;  // partial; caller checks interrupted()
    for (Var v : seen.TrueAtoms()) {
      free.Insert(v);
      determined.Insert(v);
    }
    // Fewer than cap projections means the enumeration was complete:
    // every undetermined P-atom is in no minimal model, hence negated.
    if (got < cap) return free;
  }
  for (Var v = 0; v < n; ++v) {
    if (determined.Contains(v)) continue;
    if (interrupted_) return free;  // partial; caller checks interrupted()
    Interpretation witness;
    bool is_free = ExistsMinimalModelWith(Lit::Pos(v), pqz, &witness);
    if (interrupted_) return free;
    determined.Insert(v);
    if (is_free) {
      // The witness settles all of its true P-atoms at once.
      for (Var w : witness.TrueAtoms()) {
        if (pqz.p.Contains(w)) {
          free.Insert(w);
          determined.Insert(w);
        }
      }
      free.Insert(v);
    }
  }
  return free;
}

// ---------------------------------------------------------------------------
// Query: one mode-transparent oracle call "DB plus a few extras".
// ---------------------------------------------------------------------------

MinimalEngine::Query::Query(MinimalEngine* engine) : Query(engine, nullptr) {
  if (fresh_ == nullptr) {
    own_ctx_.emplace(engine_->session_.get());
    ctx_ = &*own_ctx_;
  }
}

MinimalEngine::Query::Query(MinimalEngine* engine,
                            oracle::SatSession::Context* ctx)
    : engine_(engine), ctx_(ctx) {
  if (engine_->session() != nullptr) return;
  // Fresh mode: a dedicated solver loaded with the database and the (possibly
  // null) query budget, so fresh-mode oracle calls honor deadlines too.
  fresh_ = std::make_unique<sat::Solver>();
  fresh_->SetBudget(engine_->opts_.budget);
  fresh_->EnsureVars(engine_->db_.num_vars());
  // Prefer-false polarity makes the first model found already small, which
  // shortens minimization loops.
  fresh_->SetDefaultPolarity(false);
  for (const auto& cl : engine_->db_.ToCnf()) {
    fresh_->AddClause(cl.data(), cl.size());
  }
}

void MinimalEngine::Query::AddClause(std::vector<Lit> lits) {
  if (fresh_) {
    fresh_->AddClause(std::move(lits));
  } else {
    DD_CHECK(ctx_ != nullptr);
    ctx_->AddClause(std::move(lits));
  }
}

void MinimalEngine::Query::AddUnit(Lit l) {
  if (fresh_) {
    fresh_->AddUnit(l);
  } else {
    // Units ride as assumptions: no clause garbage, and FailedAssumptions
    // keeps working for callers that inspect it.
    units_.push_back(l);
  }
}

Var MinimalEngine::Query::NextVar() const {
  if (!fresh_) return engine_->session_->next_var();
  Var solver_next = static_cast<Var>(fresh_->num_vars());
  Var db_next = static_cast<Var>(engine_->db_.num_vars());
  return std::max(solver_next, db_next);
}

void MinimalEngine::Query::ReserveVars(Var next) {
  if (fresh_) {
    fresh_->EnsureVars(next);
  } else {
    engine_->session_->ReserveVars(next);
  }
}

Var MinimalEngine::Query::AllocVar() {
  if (!fresh_) return engine_->session_->AllocVar();
  Var v = NextVar();
  fresh_->EnsureVars(v + 1);
  return v;
}

sat::SolveResult MinimalEngine::Query::Solve(
    const std::vector<Lit>& extra_assumptions) {
  ++engine_->stats_.sat_calls;
  sat::SolveResult r;
  if (fresh_) {
    r = fresh_->Solve(extra_assumptions);
  } else {
    const std::vector<Lit>* assumptions = &extra_assumptions;
    if (!units_.empty()) {
      assumptions_ = units_;
      assumptions_.insert(assumptions_.end(), extra_assumptions.begin(),
                          extra_assumptions.end());
      assumptions = &assumptions_;
    }
    r = ctx_ != nullptr ? ctx_->Solve(*assumptions)
                        : engine_->session_->Solve(*assumptions);
  }
  // Auto-latch: call sites test `== kSat` / `== kUnsat` and then consult
  // interrupted(); this keeps a kUnknown from ever being silently folded
  // into either branch.
  if (r == sat::SolveResult::kUnknown) engine_->MarkInterrupted();
  return r;
}

Interpretation MinimalEngine::Query::Model(int n) const {
  if (fresh_) return fresh_->Model(n);
  return engine_->session_->Model(n);
}

}  // namespace dd
