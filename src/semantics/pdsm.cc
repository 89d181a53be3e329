#include "semantics/pdsm.h"

#include "sat/solver.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace dd {

namespace {

// Builds the two-bit encoding of the 3-valued models of `db`: t-bits
// share the source ids [0,n), nf-bits live at [n, 2n).
Database MakeBitDatabase(const Database& db) {
  Vocabulary voc;
  for (Var v = 0; v < db.num_vars(); ++v) {
    voc.Intern("t(" + db.vocabulary().Name(v) + ")");
  }
  for (Var v = 0; v < db.num_vars(); ++v) {
    voc.Intern("nf(" + db.vocabulary().Name(v) + ")");
  }
  Database bits(std::move(voc));
  const Var n = db.num_vars();
  auto t = [](Var v) { return v; };
  auto nf = [n](Var v) { return n + v; };

  // Consistency: t(v) -> nf(v).
  for (Var v = 0; v < n; ++v) {
    bits.AddClause(Clause({nf(v)}, {t(v)}, {}));
  }
  // Per source clause (heads a, pos body b, neg body c), 3-valued
  // satisfaction value(head) >= value(body) splits into two implications:
  //   body >= 1/2  ->  head >= 1/2 :   ∨ nf(a) ∨ ¬nf(b)... ∨ t(c)...
  //   body  = 1    ->  head  = 1   :   ∨ t(a)  ∨ ¬t(b)...  ∨ nf(c)...
  for (const Clause& c : db.clauses()) {
    std::vector<Var> heads_a, heads_b, body_a, body_b;
    for (Var a : c.heads()) {
      heads_a.push_back(nf(a));
      heads_b.push_back(t(a));
    }
    for (Var b : c.pos_body()) {
      body_a.push_back(nf(b));
      body_b.push_back(t(b));
    }
    for (Var neg : c.neg_body()) {
      // value(¬c) >= 1/2 iff c <= 1/2 iff ¬t(c); value(¬c)=1 iff ¬nf(c).
      heads_a.push_back(t(neg));
      heads_b.push_back(nf(neg));
    }
    bits.AddClause(Clause(std::move(heads_a), std::move(body_a), {}));
    bits.AddClause(Clause(std::move(heads_b), std::move(body_b), {}));
  }
  return bits;
}

}  // namespace

PdsmSemantics::PdsmSemantics(const Database& db, const SemanticsOptions& opts)
    : Semantics(db, opts, MakeBitDatabase(db)) {}

PartialInterpretation PdsmSemantics::DecodeBits(
    const Interpretation& bits) const {
  const Var n = db_.num_vars();
  PartialInterpretation out(n);
  for (Var v = 0; v < n; ++v) {
    bool tb = bits.Contains(v);
    bool nfb = bits.Contains(n + v);
    out.SetValue(v, tb ? TruthValue::kTrue
                       : (nfb ? TruthValue::kUndef : TruthValue::kFalse));
  }
  return out;
}

Interpretation PdsmSemantics::EncodeBits(const PartialInterpretation& i) const {
  const Var n = db_.num_vars();
  Interpretation out(2 * n);
  for (Var v = 0; v < n; ++v) {
    if (i.Value(v) == TruthValue::kTrue) out.Insert(v);
    if (i.Value(v) != TruthValue::kFalse) out.Insert(n + v);
  }
  return out;
}

Database PdsmSemantics::BuildReductBitDb(const PartialInterpretation& i) const {
  const Var n = db_.num_vars();
  auto t = [](Var v) { return v; };
  auto nf = [n](Var v) { return n + v; };
  Database out(bit_database().vocabulary());
  for (Var v = 0; v < n; ++v) {
    out.AddClause(Clause({nf(v)}, {t(v)}, {}));
  }
  for (const Clause& c : db_.clauses()) {
    // Constant contribution of the (replaced) negative body.
    TruthValue kappa = TruthValue::kTrue;
    for (Var neg : c.neg_body()) kappa = std::min(kappa, Negate(i.Value(neg)));
    if (kappa == TruthValue::kFalse) continue;  // body is 0: clause holds

    std::vector<Var> heads_a, body_a;
    for (Var a : c.heads()) heads_a.push_back(nf(a));
    for (Var b : c.pos_body()) body_a.push_back(nf(b));
    out.AddClause(Clause(std::move(heads_a), std::move(body_a), {}));

    if (kappa == TruthValue::kTrue) {
      std::vector<Var> heads_b, body_b;
      for (Var a : c.heads()) heads_b.push_back(t(a));
      for (Var b : c.pos_body()) body_b.push_back(t(b));
      out.AddClause(Clause(std::move(heads_b), std::move(body_b), {}));
    }
  }
  return out;
}

Result<bool> PdsmSemantics::IsPartialStable(const PartialInterpretation& i) {
  if (i.num_vars() != db_.num_vars()) {
    return Status::InvalidArgument("interpretation size mismatch");
  }
  Database reduct = BuildReductBitDb(i);
  Interpretation bits = EncodeBits(i);
  if (!reduct.Satisfies(bits)) return false;
  MinimalEngine re(reduct, opts_.minimal_options());
  Partition all = Partition::MinimizeAll(reduct.num_vars());
  bool minimal = re.IsMinimal(bits, all);
  engine_.AbsorbStats(re.stats());
  if (re.interrupted()) return re.interrupt_status();
  return minimal;
}

Status PdsmSemantics::ForEachPartialStable(
    const std::function<bool(const PartialInterpretation&)>& visit) {
  // Candidates: 3-valued models of DB, enumerated over the bit encoding
  // with exact blocking.
  sat::Solver s;
  s.SetBudget(opts_.budget);
  s.EnsureVars(bit_database().num_vars());
  for (const auto& cl : bit_database().ToCnf()) s.AddClause(cl);

  int64_t candidates = 0;
  for (;;) {
    sat::SolveResult r = s.Solve();
    if (r == sat::SolveResult::kUnknown) {
      // kUnknown is not "no more candidates": stopping here would silently
      // truncate the partial-stable search and flip inferences.
      MinimalStats ms;
      ms.sat_calls = s.stats().solve_calls;
      engine_.AbsorbStats(ms);
      return BudgetOrUnknownStatus(opts_.budget,
                                   "PDSM candidate oracle unknown");
    }
    if (r != sat::SolveResult::kSat) break;
    if (++candidates > opts_.max_candidates) {
      return Status::ResourceExhausted(
          StrFormat("PDSM candidate search exceeded %lld interpretations",
                    static_cast<long long>(opts_.max_candidates)));
    }
    Interpretation bits = s.Model(bit_database().num_vars());
    PartialInterpretation i = DecodeBits(bits);
    DD_ASSIGN_OR_RETURN(bool stable, IsPartialStable(i));
    if (stable && !visit(i)) return Status::OK();
    // Exclude exactly this bit pattern.
    std::vector<Lit> block;
    for (Var v = 0; v < bit_database().num_vars(); ++v) {
      block.push_back(bits.Contains(v) ? Lit::Neg(v) : Lit::Pos(v));
    }
    if (block.empty()) break;
    s.AddClause(std::move(block));
  }
  return Status::OK();
}

Result<std::vector<PartialInterpretation>> PdsmSemantics::PartialModels(
    int64_t cap) {
  if (cap < 0) cap = opts_.max_models;
  std::vector<PartialInterpretation> out;
  DD_RETURN_IF_ERROR(
      ForEachPartialStable([&](const PartialInterpretation& i) {
        out.push_back(i);
        return static_cast<int64_t>(out.size()) < cap;
      }));
  return out;
}

Result<std::vector<Interpretation>> PdsmSemantics::Models(int64_t cap) {
  if (cap < 0) cap = opts_.max_models;
  std::vector<Interpretation> out;
  Status st = ForEachPartialStable([&](const PartialInterpretation& i) {
    if (i.IsTotal()) {
      out.push_back(i.TrueSet());
      if (static_cast<int64_t>(out.size()) >= cap) return false;
    }
    return true;
  });
  if (!st.ok()) {
    // Anytime payload: each collected model is a verified total stable
    // model; the enumeration is merely truncated.
    if (st.IsBudgetExhaustion()) partial_models_ = std::move(out);
    return st;
  }
  return out;
}

Result<bool> PdsmSemantics::InfersFormula(const Formula& f) {
  DD_ASSIGN_OR_RETURN(std::optional<PartialInterpretation> ce,
                      FindPartialCounterexample(f));
  return !ce.has_value();
}

Result<std::optional<PartialInterpretation>>
PdsmSemantics::FindPartialCounterexample(const Formula& f) {
  std::optional<PartialInterpretation> out;
  DD_RETURN_IF_ERROR(
      ForEachPartialStable([&](const PartialInterpretation& i) {
        if (f->Eval3(i) != TruthValue::kTrue) {
          out = i;
          return false;
        }
        return true;
      }));
  return out;
}

Result<std::optional<Interpretation>> PdsmSemantics::FindCounterexample(
    const Formula& f) {
  DD_ASSIGN_OR_RETURN(std::optional<PartialInterpretation> ce,
                      FindPartialCounterexample(f));
  if (!ce.has_value()) return std::optional<Interpretation>();
  return std::optional<Interpretation>(ce->TrueSet());
}

Result<bool> PdsmSemantics::HasModel() {
  if (db_.IsPositive()) {
    // The reduct of a positive DB is the DB itself; its 3-valued models
    // form a nonempty finite poset under the truth order, so truth-minimal
    // ones (= partial stable models) always exist — Table 1's O(1) entry.
    return true;
  }
  bool found = false;
  DD_RETURN_IF_ERROR(ForEachPartialStable([&](const PartialInterpretation&) {
    found = true;
    return false;
  }));
  return found;
}

}  // namespace dd
