#include "semantics/pws.h"

#include <algorithm>
#include <set>

#include "fixpoint/ddr_fixpoint.h"
#include "semantics/pws_encoding.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace dd {

namespace {

// A definite rule of a split program.
struct SplitRule {
  Var head;
  const std::vector<Var>* body;
};

// Least model of a set of definite rules (queue-based unit fixpoint).
Interpretation LeastModel(int num_vars, const std::vector<SplitRule>& rules) {
  struct Pending {
    Var head;
    int unsatisfied;
  };
  std::vector<Pending> pending;
  std::vector<std::vector<int>> watch(static_cast<size_t>(num_vars));
  std::vector<Var> queue;
  Interpretation derived(num_vars);
  auto derive = [&](Var v) {
    if (!derived.Contains(v)) {
      derived.Insert(v);
      queue.push_back(v);
    }
  };
  for (const SplitRule& r : rules) {
    if (r.body->empty()) {
      derive(r.head);
      continue;
    }
    int idx = static_cast<int>(pending.size());
    pending.push_back({r.head, static_cast<int>(r.body->size())});
    for (Var b : *r.body) watch[static_cast<size_t>(b)].push_back(idx);
  }
  while (!queue.empty()) {
    Var v = queue.back();
    queue.pop_back();
    for (int ri : watch[static_cast<size_t>(v)]) {
      if (--pending[static_cast<size_t>(ri)].unsatisfied == 0) {
        derive(pending[static_cast<size_t>(ri)].head);
      }
    }
  }
  return derived;
}

}  // namespace

PwsSemantics::PwsSemantics(const Database& db, const SemanticsOptions& opts)
    : ClosedWorldSemantics(db, opts),
      deductive_(!db.HasNegation()),
      positive_(deductive_ && !db.HasIntegrityClauses()) {}

Status PwsSemantics::CheckDeductive() const {
  if (!deductive_) {
    return Status::FailedPrecondition(
        "PWS is defined for deductive databases (no negation)");
  }
  return Status::OK();
}

Result<std::vector<Interpretation>> PwsSemantics::PossibleModels() {
  DD_RETURN_IF_ERROR(CheckDeductive());
  // Collect the rules (non-integrity clauses) and the integrity clauses.
  std::vector<const Clause*> rules;
  std::vector<const Clause*> constraints;
  for (const Clause& c : db_.clauses()) {
    if (c.heads().size() > 31) {
      return Status::ResourceExhausted(
          "PWS split enumeration limited to heads of at most 31 atoms");
    }
    (c.is_integrity() ? constraints : rules).push_back(&c);
  }

  // Evaluates one split program (given by the choice masks) and inserts its
  // least model into `out` if the integrity clauses hold. `split` is the
  // caller's scratch buffer (avoids per-split allocation).
  auto process = [&](const std::vector<uint32_t>& choice,
                     std::vector<SplitRule>* split,
                     std::set<Interpretation>* out) {
    split->clear();
    for (size_t i = 0; i < rules.size(); ++i) {
      const Clause& c = *rules[i];
      uint32_t mask = choice[i];
      for (size_t h = 0; h < c.heads().size(); ++h) {
        if (mask & (1u << h)) split->push_back({c.heads()[h], &c.pos_body()});
      }
    }
    Interpretation lm = LeastModel(db_.num_vars(), *split);
    for (const Clause* ic : constraints) {
      if (!ic->SatisfiedBy(lm)) return;
    }
    out->insert(std::move(lm));
  };

  std::set<Interpretation> found;

  if (opts_.num_threads > 1 && !rules.empty()) {
    // Parallel enumeration, partitioned by the first rule's head choice.
    // The split-count budget is checked upfront (saturating product of the
    // per-rule nonempty-subset counts), so workers run unthrottled; the
    // sequential path's budget check trips in exactly the same cases.
    // Each worker owns a std::set, merged below — the master set is the
    // canonical (sorted, deduplicated) union, so the result is identical
    // to the sequential enumeration for every thread count.
    int64_t total = 1;
    for (const Clause* r : rules) {
      const int64_t opts_r = (int64_t{1} << r->heads().size()) - 1;
      if (total > opts_.max_candidates / opts_r) {
        total = opts_.max_candidates + 1;
        break;
      }
      total *= opts_r;
    }
    if (total > opts_.max_candidates) {
      return Status::ResourceExhausted(StrFormat(
          "PWS split enumeration exceeded %lld splits",
          static_cast<long long>(opts_.max_candidates)));
    }
    const uint32_t full0 = (1u << rules[0]->heads().size()) - 1;
    std::vector<std::set<Interpretation>> partials(full0);
    const CancelToken* cancel =
        opts_.budget ? opts_.budget->cancel_token().get() : nullptr;
    ParallelFor(static_cast<int64_t>(full0), opts_.num_threads, cancel,
                [&](int64_t t) {
                  std::vector<uint32_t> choice(rules.size(), 1);
                  choice[0] = static_cast<uint32_t>(t) + 1;
                  std::vector<SplitRule> split;
                  int64_t ticks = 0;
                  for (;;) {
                    if (cancel != nullptr && ((++ticks & 255) == 0) &&
                        cancel->cancelled()) {
                      return;  // partial set discarded via the budget check
                    }
                    process(choice, &split, &partials[static_cast<size_t>(t)]);
                    // Advance the odometer over rules[1..] only; rule 0 is
                    // this task's fixed partition coordinate.
                    size_t i = 1;
                    for (; i < rules.size(); ++i) {
                      uint32_t full = (1u << rules[i]->heads().size()) - 1;
                      if (choice[i] < full) {
                        ++choice[i];
                        break;
                      }
                      choice[i] = 1;
                    }
                    if (i == rules.size()) break;  // inner odometer wrapped
                  }
                });
    // Deadline mid-enumeration: the merged set would be missing splits, so
    // degrade to Status instead of returning a too-small possible-model set.
    if (opts_.budget != nullptr && opts_.budget->Exhausted()) {
      return opts_.budget->ToStatus();
    }
    for (std::set<Interpretation>& p : partials) {
      found.insert(p.begin(), p.end());
    }
    return std::vector<Interpretation>(found.begin(), found.end());
  }

  int64_t splits_explored = 0;

  // Odometer over nonempty head subsets of every rule.
  std::vector<uint32_t> choice(rules.size(), 1);  // masks, start at {first}
  std::vector<SplitRule> split;
  for (;;) {
    if (++splits_explored > opts_.max_candidates) {
      return Status::ResourceExhausted(StrFormat(
          "PWS split enumeration exceeded %lld splits",
          static_cast<long long>(opts_.max_candidates)));
    }
    if (opts_.budget != nullptr && ((splits_explored & 255) == 0) &&
        opts_.budget->Exhausted()) {
      return opts_.budget->ToStatus();
    }
    process(choice, &split, &found);

    // Advance the odometer.
    size_t i = 0;
    for (; i < rules.size(); ++i) {
      uint32_t full = (1u << rules[i]->heads().size()) - 1;
      if (choice[i] < full) {
        ++choice[i];
        break;
      }
      choice[i] = 1;
    }
    if (i == rules.size()) break;  // odometer wrapped: done
    // Rules with empty choice impossible: masks start at 1.
  }
  return std::vector<Interpretation>(found.begin(), found.end());
}

Result<Interpretation> PwsSemantics::PossibleAtoms() {
  DD_RETURN_IF_ERROR(CheckDeductive());
  if (possible_atoms_.has_value()) return *possible_atoms_;
  if (positive_) {
    // Polynomial path: split choices are monotone, so the full-split least
    // model is itself a possible model containing every atom any possible
    // model contains.
    possible_atoms_ = DefiniteLeastModel(db_);
    return *possible_atoms_;
  }
  if (opts_.pws_use_sat_encoding) {
    PwsEncodingStats stats;
    DD_ASSIGN_OR_RETURN(Interpretation atoms,
                        PossibleAtomsViaSat(db_, &stats, opts_.budget));
    MinimalStats ms;
    ms.sat_calls = stats.sat_calls;
    engine_.AbsorbStats(ms);
    possible_atoms_ = std::move(atoms);
    return *possible_atoms_;
  }
  DD_ASSIGN_OR_RETURN(std::vector<Interpretation> pms, PossibleModels());
  Interpretation atoms(db_.num_vars());
  for (const auto& m : pms) {
    for (Var v : m.TrueAtoms()) atoms.Insert(v);
  }
  possible_atoms_ = std::move(atoms);
  return *possible_atoms_;
}

Result<bool> PwsSemantics::InfersLiteral(Lit l) {
  DD_RETURN_IF_ERROR(CheckDeductive());
  if (l.negative() && positive_) {
    DD_ASSIGN_OR_RETURN(Interpretation atoms, PossibleAtoms());
    // As with DDR: the atom set of the full split is a counter-model when
    // it contains x, and ¬x is part of the augmentation otherwise.
    return !atoms.Contains(l.var());
  }
  return InfersFormula(FormulaNode::MakeLit(l));
}

Result<bool> PwsSemantics::InfersFormula(const Formula& f) {
  DD_RETURN_IF_ERROR(CheckDeductive());
  return ClosedWorldSemantics::InfersFormula(f);
}

Result<bool> PwsSemantics::HasModel() {
  DD_RETURN_IF_ERROR(CheckDeductive());
  if (positive_) return true;
  return ClosedWorldSemantics::HasModel();
}

Result<Interpretation> PwsSemantics::ComputeNegatedAtoms() {
  DD_ASSIGN_OR_RETURN(Interpretation atoms, PossibleAtoms());
  Interpretation negs(db_.num_vars());
  for (Var v = 0; v < db_.num_vars(); ++v) {
    if (!atoms.Contains(v)) negs.Insert(v);
  }
  return negs;
}

}  // namespace dd
