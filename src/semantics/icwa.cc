#include "semantics/icwa.h"

#include "sat/solver.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace dd {

namespace {
using sat::SolveResult;
using sat::Solver;
}  // namespace

IcwaSemantics::IcwaSemantics(const Database& db, const SemanticsOptions& opts)
    : Semantics(db, opts, db.Positivize()) {}

IcwaSemantics::IcwaSemantics(const Database& db, Stratification strat,
                             const SemanticsOptions& opts)
    : Semantics(db, opts, db.Positivize()),
      strat_(std::move(strat)),
      strat_provided_(true) {}

Status IcwaSemantics::EnsureStratified() {
  if (!strat_.has_value()) {
    DD_ASSIGN_OR_RETURN(Stratification s, Stratify(db_));
    strat_ = std::move(s);
  }
  if (stratum_partitions_.empty()) {
    const int n = db_.num_vars();
    for (int i = 0; i < strat_->num_strata; ++i) {
      Partition p;
      p.p = Interpretation(n);
      p.q = Interpretation(n);
      p.z = Interpretation(n);
      for (Var v = 0; v < n; ++v) {
        int lv = strat_->atom_level[static_cast<size_t>(v)];
        if (lv == i) {
          p.p.Insert(v);
        } else if (lv < i) {
          p.q.Insert(v);
        } else {
          p.z.Insert(v);
        }
      }
      stratum_partitions_.push_back(std::move(p));
    }
  }
  return Status::OK();
}

Result<bool> IcwaSemantics::IsIcwaModel(const Interpretation& m) {
  DD_RETURN_IF_ERROR(EnsureStratified());
  if (!positivized().Satisfies(m)) return false;
  for (const Partition& p : stratum_partitions_) {
    bool minimal = engine_.IsMinimal(m, p);
    if (engine_.interrupted()) return engine_.interrupt_status();
    if (!minimal) return false;
  }
  return true;
}

Result<bool> IcwaSemantics::InfersFormula(const Formula& f) {
  DD_RETURN_IF_ERROR(EnsureStratified());
  // Counterexample-guided search for an ICWA model violating F.
  Solver s;
  s.SetBudget(opts_.budget);
  s.EnsureVars(positivized().num_vars());
  for (const auto& cl : positivized().ToCnf()) s.AddClause(cl);
  Var next = static_cast<Var>(positivized().num_vars());
  std::vector<std::vector<Lit>> fcnf;
  Lit fl = TseitinEncode(f, &next, &fcnf);
  s.EnsureVars(next);
  for (auto& cl : fcnf) s.AddClause(std::move(cl));
  s.AddUnit(~fl);

  int64_t iterations = 0;
  for (;;) {
    if (++iterations > opts_.max_candidates) {
      return Status::ResourceExhausted(
          "ICWA inference exceeded the candidate budget");
    }
    SolveResult r = s.Solve();
    if (r == SolveResult::kUnknown) {
      // Deadline / conflict budget / injected fault: kUnsat would wrongly
      // report "inferred", so degrade to Status.
      return BudgetOrUnknownStatus(opts_.budget,
                                   "ICWA candidate oracle unknown");
    }
    if (r != SolveResult::kSat) return true;
    Interpretation m = s.Model(positivized().num_vars());

    int failing = -1;
    for (size_t i = 0; i < stratum_partitions_.size(); ++i) {
      bool minimal = engine_.IsMinimal(m, stratum_partitions_[i]);
      if (engine_.interrupted()) return engine_.interrupt_status();
      if (!minimal) {
        failing = static_cast<int>(i);
        break;
      }
    }
    if (failing < 0) return false;  // m is an ICWA counterexample

    const Partition& pi = stratum_partitions_[static_cast<size_t>(failing)];
    Interpretation mm = engine_.Minimize(m, pi);
    if (engine_.interrupted()) return engine_.interrupt_status();
    // Probe: a ¬F-model sharing mm's exact <Pᵢ,Qᵢ>-projection would be
    // ECWA_i-minimal; if none exists the whole region is safe to block
    // (its ICWA models, if any, satisfy F). The probe is "positivized DB
    // plus Tseitin(¬F)", so it rides the engine's session in session mode.
    MinimalEngine::Query probe(&engine_);
    {
      std::vector<std::vector<Lit>> pcnf;
      Var pnext = probe.NextVar();
      Lit pl = TseitinEncode(f, &pnext, &pcnf);
      probe.ReserveVars(pnext);
      for (auto& cl : pcnf) probe.AddClause(std::move(cl));
      probe.AddUnit(~pl);
    }
    std::vector<Lit> proj;
    for (Var v = 0; v < positivized().num_vars(); ++v) {
      if (pi.p.Contains(v) || pi.q.Contains(v)) {
        proj.push_back(Lit::Make(v, mm.Contains(v)));
      }
    }
    SolveResult pr = probe.Solve(proj);
    if (engine_.interrupted()) {
      // kUnknown must not fall through to region-blocking: the region might
      // hold the counterexample the probe failed to find.
      return engine_.interrupt_status();
    }
    if (pr == SolveResult::kSat) {
      // Inconclusive region: exclude exactly m and keep searching.
      std::vector<Lit> block;
      for (Var v = 0; v < positivized().num_vars(); ++v) {
        block.push_back(m.Contains(v) ? Lit::Neg(v) : Lit::Pos(v));
      }
      s.AddClause(std::move(block));
    } else {
      // Block the whole region {P_i ⊇ mm∩P_i, Q_i = mm∩Q_i}.
      std::vector<Lit> block;
      for (Var v = 0; v < positivized().num_vars(); ++v) {
        if (pi.p.Contains(v) && mm.Contains(v)) block.push_back(Lit::Neg(v));
        if (pi.q.Contains(v)) {
          block.push_back(mm.Contains(v) ? Lit::Neg(v) : Lit::Pos(v));
        }
      }
      if (block.empty()) return true;  // the region is everything
      s.AddClause(std::move(block));
    }
  }
}

Result<bool> IcwaSemantics::HasModel() {
  DD_RETURN_IF_ERROR(EnsureStratified());
  if (!db_.HasIntegrityClauses()) {
    // Paper Section 4: a stratified database (no integrity clauses) always
    // has ICWA models — the O(1) entry.
    return true;
  }
  DD_ASSIGN_OR_RETURN(std::vector<Interpretation> ms, Models(1));
  return !ms.empty();
}

Result<std::vector<Interpretation>> IcwaSemantics::Models(int64_t cap) {
  DD_RETURN_IF_ERROR(EnsureStratified());
  if (cap < 0) cap = opts_.max_models;
  // ICWA models are ECWA_1-minimal; enumerate those and filter by the
  // remaining strata.
  std::vector<Interpretation> out;
  Status inner = Status::OK();
  int64_t candidates = 0;
  engine_.EnumerateAllMinimalModels(
      stratum_partitions_[0], /*cap=*/-1, [&](const Interpretation& m) {
        if (++candidates > opts_.max_candidates) {
          inner = Status::ResourceExhausted("too many ECWA_1 models");
          return false;
        }
        bool ok = true;
        for (size_t i = 1; i < stratum_partitions_.size(); ++i) {
          bool minimal = engine_.IsMinimal(m, stratum_partitions_[i]);
          if (engine_.interrupted()) return false;  // stop; handled below
          if (!minimal) {
            ok = false;
            break;
          }
        }
        if (ok) {
          out.push_back(m);
          if (static_cast<int64_t>(out.size()) >= cap) return false;
        }
        return true;
      });
  if (engine_.interrupted()) {
    // Anytime payload: each collected model passed every stratum check
    // before the interrupt, so all of them ARE ICWA models.
    partial_models_ = std::move(out);
    return engine_.interrupt_status();
  }
  DD_RETURN_IF_ERROR(inner);
  return out;
}

}  // namespace dd
