#include "batch/query_batch.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "analysis/slicer.h"
#include "logic/formula_transform.h"
#include "util/macros.h"

namespace dd {
namespace batch {

void BatchStats::Add(const BatchStats& o) {
  queries += o.queries;
  unique_queries += o.unique_queries;
  dedup_hits += o.dedup_hits;
  conjunct_splits += o.conjunct_splits;
  disjunct_splits += o.disjunct_splits;
  groups += o.groups;
  bank_groups += o.bank_groups;
  fallback_groups += o.fallback_groups;
  bank_models += o.bank_models;
  unknowns += o.unknowns;
  group_atoms += o.group_atoms;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cache_insertions += o.cache_insertions;
  cache_evictions += o.cache_evictions;
  cache_invalidations += o.cache_invalidations;
  bank_store_hits += o.bank_store_hits;
  bank_store_misses += o.bank_store_misses;
  bank_store_insertions += o.bank_store_insertions;
  bank_store_evictions += o.bank_store_evictions;
  bank_store_invalidations += o.bank_store_invalidations;
  bank_store_truncated_rejected += o.bank_store_truncated_rejected;
}

void Publish(const BatchStats& s, obs::MetricsRegistry* reg) {
  reg->Add("dd.batch.queries", s.queries);
  reg->Add("dd.batch.unique_queries", s.unique_queries);
  reg->Add("dd.batch.dedup_hits", s.dedup_hits);
  reg->Add("dd.batch.conjunct_splits", s.conjunct_splits);
  reg->Add("dd.batch.disjunct_splits", s.disjunct_splits);
  reg->Add("dd.batch.groups", s.groups);
  reg->Add("dd.batch.bank_groups", s.bank_groups);
  reg->Add("dd.batch.fallback_groups", s.fallback_groups);
  reg->Add("dd.batch.bank_models", s.bank_models);
  reg->Add("dd.batch.unknowns", s.unknowns);
  reg->Add("dd.batch.group_atoms", s.group_atoms);
  reg->Add("dd.cache.hits", s.cache_hits);
  reg->Add("dd.cache.misses", s.cache_misses);
  reg->Add("dd.cache.insertions", s.cache_insertions);
  reg->Add("dd.cache.evictions", s.cache_evictions);
  reg->Add("dd.cache.invalidations", s.cache_invalidations);
  reg->Add("dd.bank.hits", s.bank_store_hits);
  reg->Add("dd.bank.misses", s.bank_store_misses);
  reg->Add("dd.bank.insertions", s.bank_store_insertions);
  reg->Add("dd.bank.evictions", s.bank_store_evictions);
  reg->Add("dd.bank.invalidations", s.bank_store_invalidations);
  reg->Add("dd.bank.truncated_rejected", s.bank_store_truncated_rejected);
}

std::string CanonicalKey(const Formula& f, const Vocabulary& voc) {
  switch (f->kind()) {
    case FormulaKind::kConst:
      return f->const_value() ? "1" : "0";
    case FormulaKind::kAtom:
      return "a(" + voc.Name(f->atom()) + ")";
    case FormulaKind::kNot:
      return "!(" + CanonicalKey(f->children()[0], voc) + ")";
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kIff: {
      // Commutative connectives: child keys in sorted order, so "a & b"
      // and "b & a" share one canonical query.
      std::vector<std::string> keys;
      keys.reserve(f->children().size());
      for (const Formula& c : f->children()) {
        keys.push_back(CanonicalKey(c, voc));
      }
      std::sort(keys.begin(), keys.end());
      std::string out = f->kind() == FormulaKind::kAnd  ? "&("
                        : f->kind() == FormulaKind::kOr ? "|("
                                                        : "<->(";
      for (size_t i = 0; i < keys.size(); ++i) {
        out += keys[i];
        if (i + 1 < keys.size()) out += ",";
      }
      return out + ")";
    }
    case FormulaKind::kImplies:
      return "->(" + CanonicalKey(f->children()[0], voc) + "," +
             CanonicalKey(f->children()[1], voc) + ")";
  }
  return "?";
}

namespace {

/// The literal a simplified formula denotes, if it is one.
std::optional<Lit> AsLiteral(const Formula& f) {
  if (f->kind() == FormulaKind::kAtom) return Lit::Pos(f->atom());
  if (f->kind() == FormulaKind::kNot &&
      f->children()[0]->kind() == FormulaKind::kAtom) {
    return Lit::Neg(f->children()[0]->atom());
  }
  return std::nullopt;
}

/// Appends every atom occurrence of `f` to `out`.
void CollectVars(const Formula& f, std::vector<Var>* out) {
  if (f->kind() == FormulaKind::kAtom) {
    out->push_back(f->atom());
    return;
  }
  for (const Formula& c : f->children()) CollectVars(c, out);
}

}  // namespace

CanonicalQuery Canonicalize(const Formula& f, const Vocabulary& voc) {
  return CanonicalizeSimplified(Simplify(f), voc);
}

CanonicalQuery CanonicalizeSimplified(Formula f, const Vocabulary& voc) {
  CanonicalQuery q;
  q.f = std::move(f);
  q.key = CanonicalKey(q.f, voc);
  CollectVars(q.f, &q.roots);
  std::sort(q.roots.begin(), q.roots.end());
  q.roots.erase(std::unique(q.roots.begin(), q.roots.end()), q.roots.end());
  q.lit = AsLiteral(q.f);
  return q;
}

CanonicalQuery RenameQuery(const CanonicalQuery& q,
                           const std::vector<Var>& atoms) {
  CanonicalQuery out;
  out.f = RenameAtoms(q.f, [&](Var v) { return analysis::LocalVar(atoms, v); });
  out.key = q.key;
  CollectVars(out.f, &out.roots);
  std::sort(out.roots.begin(), out.roots.end());
  out.roots.erase(std::unique(out.roots.begin(), out.roots.end()),
                  out.roots.end());
  out.lit = AsLiteral(out.f);
  return out;
}

std::vector<Formula> SplitConjuncts(const Formula& f) {
  Formula s = Simplify(f);
  if (s->kind() == FormulaKind::kAnd) {
    return s->children();  // Simplify already flattened nested ∧
  }
  return {s};
}

std::vector<Formula> SplitDisjuncts(const Formula& f) {
  Formula s = Simplify(f);
  if (s->kind() == FormulaKind::kOr) {
    return s->children();  // Simplify already flattened nested ∨
  }
  return {s};
}

bool BankIsSound(SemanticsKind kind) {
  // Every 2-valued semantics is characterized by its intended-model set
  // (core/brute_force.h); PDSM answers 3-valued over partial stable
  // models, which the bank's total models cannot reproduce.
  return kind != SemanticsKind::kPdsm;
}

bool BraveBankIsSound(SemanticsKind kind) {
  // Same characterization, existential direction: credulous inference is
  // "f true in some intended model" for every 2-valued semantics. PDSM's
  // credulous check runs 3-valued over partial stable models
  // (FindCounterexample of ¬f under Eval3), which the total projections
  // in a bank cannot reproduce — same gate, same reason.
  return kind != SemanticsKind::kPdsm;
}

size_t MinBankGroup(SemanticsKind kind, BatchMode mode) {
  if (kind == SemanticsKind::kCwa) return 1;
  if (kind == SemanticsKind::kIcwa && mode == BatchMode::kBrave) return 1;
  return kMinBankGroup;
}

namespace {

/// Answers every member query from a complete bank: a for-all pass
/// (skeptical) or an exists pass (brave) of polynomial formula
/// evaluations. On an EMPTY bank (a semantics-inconsistent module) the
/// for-all pass answers yes vacuously and the exists pass answers no —
/// matching the engines' conventions for model-free databases.
void AnswerFromBank(const GroupRequest& req, const ModelBank& bank,
                    GroupResult* out) {
  const bool brave = req.mode == BatchMode::kBrave;
  for (size_t i = 0; i < req.queries.size(); ++i) {
    const Formula& f = req.queries[i]->f;
    const Interpretation* found = nullptr;
    for (const Interpretation& m : *bank.models) {
      // The decisive model: satisfying for brave, violating for skeptical.
      if (f->Eval(m) == brave) {
        found = &m;
        break;
      }
    }
    out->answers[i] = TrileanFromBool(brave ? found != nullptr
                                            : found == nullptr);
    if (req.collect_witnesses && found != nullptr) {
      out->witnesses[i] = *found;
    }
  }
}

}  // namespace

GroupResult EvaluateGroup(const GroupRequest& req) {
  GroupResult out;
  out.answers.assign(req.queries.size(), Trilean::kUnknown);
  if (req.collect_witnesses) {
    out.witnesses.assign(req.queries.size(), std::nullopt);
  }
  const bool brave = req.mode == BatchMode::kBrave;

  // A stored complete bank answers the whole group with zero oracle work
  // (and zero budget spend): the expensive enumeration already happened
  // in an earlier batch or ladder rung.
  if (req.eval == GroupEval::kStoredBank) {
    DD_CHECK(req.bank != nullptr && req.bank->complete);
    AnswerFromBank(req, *req.bank, &out);
    out.used_bank = true;
    out.bank_from_store = true;
    return out;
  }

  DD_CHECK(req.db != nullptr);
  std::unique_ptr<Semantics> engine =
      MakeSemantics(req.kind, *req.db, req.opts, req.partition);
  if (req.budget != nullptr) engine->SetBudget(req.budget);

  // New shared model bank: enumerate the group's intended models once and
  // answer every member query against them. Asking for cap+1 models and
  // trusting only when at most cap came back PROVES completeness — an
  // enumeration engine may silently stop at its cap (PERF, ICWA) or
  // error past it (CWA family, EGCWA), and either way a result of
  // exactly cap models under a cap-sized request could be truncated,
  // while under a (cap+1)-sized request it cannot be.
  if (req.eval == GroupEval::kNewBank) {
    const int64_t cap = EffectiveBankCap(req.model_bank_cap, req.opts);
    Result<std::shared_ptr<const std::vector<Interpretation>>> models =
        engine->SharedModels(cap + 1);
    if (models.ok() && static_cast<int64_t>((*models)->size()) <= cap) {
      auto bank = std::make_shared<ModelBank>();
      bank->models = std::move(*models);
      bank->num_vars = bank->models->empty()
                           ? std::numeric_limits<int>::max()
                           : bank->models->front().num_vars();
      bank->complete = true;
      AnswerFromBank(req, *bank, &out);
      out.used_bank = true;
      out.bank_models = static_cast<int64_t>(bank->models->size());
      if (req.export_bank) out.built_bank = std::move(bank);
      engine->ReportNewWork(&out.stats, &out.session_stats);
      return out;
    }
    // Budget exhaustion during banking latches the engine interrupt; the
    // per-query loop below then fails fast per query with sound
    // kUnknowns. A model-count overflow (more intended models than the
    // cap) does not latch anything — the loop answers normally. Neither
    // outcome ever exports a bank.
  }

  // Direct evaluation (and the new-bank fallback): one engine call per
  // member query.
  for (size_t i = 0; i < req.queries.size(); ++i) {
    const CanonicalQuery* q = req.queries[i];
    Status failed;
    if (brave || req.collect_witnesses) {
      // Brave: the engine's own credulous check — a model violating ¬f is
      // exactly a model satisfying f — so these answers equal the
      // sequential InfersCredulously entry point by construction
      // (including PDSM's 3-valued reading). Skeptical with witnesses: a
      // counterexample to f, nullopt ⇔ inferred.
      Result<std::optional<Interpretation>> r = engine->FindCounterexample(
          brave ? FormulaNode::MakeNot(q->f) : q->f);
      if (r.ok()) {
        out.answers[i] = TrileanFromBool(r->has_value() == brave);
        if (req.collect_witnesses && r->has_value()) {
          out.witnesses[i] = std::move(**r);
        }
        continue;
      }
      failed = r.status();
    } else {
      Result<bool> r = q->lit.has_value() ? engine->InfersLiteral(*q->lit)
                                          : engine->InfersFormula(q->f);
      if (r.ok()) {
        out.answers[i] = TrileanFromBool(*r);
        continue;
      }
      failed = r.status();
    }
    // The answer stays kUnknown: budget exhaustion is sound, and the
    // first hard error fails the batch.
    if (!failed.IsBudgetExhaustion() && out.error.ok()) out.error = failed;
  }

  engine->ReportNewWork(&out.stats, &out.session_stats);
  return out;
}

}  // namespace batch
}  // namespace dd
