#include "semantics/egcwa.h"

#include <algorithm>
#include <cstdint>

#include "util/string_util.h"
#include "util/thread_pool.h"

namespace dd {

EgcwaSemantics::EgcwaSemantics(const Database& db,
                               const SemanticsOptions& opts)
    : Semantics(db, opts),
      all_(Partition::MinimizeAll(db.num_vars())),
      positive_(db.IsPositive()) {}

Result<bool> EgcwaSemantics::InfersFormula(const Formula& f) {
  bool entails = engine_.MinimalEntails(f, all_);
  if (engine_.interrupted()) return engine_.interrupt_status();
  return entails;
}

Result<std::optional<Interpretation>> EgcwaSemantics::FindCounterexample(
    const Formula& f) {
  Interpretation witness;
  bool entails = engine_.MinimalEntails(f, all_, &witness);
  if (engine_.interrupted()) return engine_.interrupt_status();
  if (entails) {
    return std::optional<Interpretation>();
  }
  return std::optional<Interpretation>(witness);
}

Result<bool> EgcwaSemantics::HasModel() {
  // EGCWA(DB) = MM(DB) is nonempty iff DB has any model at all (finite
  // propositional case: every model contains a minimal one).
  if (positive_) return true;  // Table 1's O(1) entry
  bool has = engine_.HasModel();
  if (engine_.interrupted()) return engine_.interrupt_status();
  return has;
}

Result<std::vector<Interpretation>> EgcwaSemantics::Models(int64_t cap) {
  if (cap < 0) cap = opts_.max_models;
  std::vector<Interpretation> out;
  bool overflow = false;
  engine_.EnumerateMinimalProjections(all_, cap + 1,
                                      [&](const Interpretation& m) {
                                        if (static_cast<int64_t>(out.size()) >=
                                            cap) {
                                          overflow = true;
                                          return false;
                                        }
                                        out.push_back(m);
                                        return true;
                                      });
  if (engine_.interrupted()) {
    // Anytime payload: every collected model IS minimal; the enumeration
    // is merely truncated by the budget.
    partial_models_ = std::move(out);
    return engine_.interrupt_status();
  }
  if (overflow) {
    partial_models_ = std::move(out);
    return Status::ResourceExhausted(StrFormat(
        "more than %lld minimal models", static_cast<long long>(cap)));
  }
  return out;
}

Result<std::shared_ptr<const std::vector<Interpretation>>>
EgcwaSemantics::SharedModels(int64_t cap) {
  if (cap < 0) cap = opts_.max_models;
  // Drive the (memoized) projection stream to exhaustion — or to cap+1,
  // which proves overflow — WITHOUT collecting: on success the stream
  // itself is the model set and we alias it.
  int64_t seen = 0;
  bool overflow = false;
  engine_.EnumerateMinimalProjections(all_, cap + 1,
                                      [&](const Interpretation&) {
                                        if (seen >= cap) {
                                          overflow = true;
                                          return false;
                                        }
                                        ++seen;
                                        return true;
                                      });
  if (engine_.interrupted()) return engine_.interrupt_status();
  if (overflow) {
    return Status::ResourceExhausted(StrFormat(
        "more than %lld minimal models", static_cast<long long>(cap)));
  }
  std::shared_ptr<const std::vector<Interpretation>> shared =
      engine_.SharedExhaustedProjections(all_);
  if (shared != nullptr) return shared;
  // Fresh-solver mode has no memoized stream; copy via the default.
  return Semantics::SharedModels(cap);
}

Result<std::vector<std::vector<Var>>> EgcwaSemantics::EntailedNegativeClauses(
    int max_size) {
  // Materialize the minimal models once; a set S yields an entailed
  // negative clause iff no minimal model contains S, and we report only
  // the ⊆-minimal such S (everything above them is subsumed).
  DD_ASSIGN_OR_RETURN(std::vector<Interpretation> minimal, Models());
  const int n = db_.num_vars();
  std::vector<std::vector<Var>> found;

  // Breadth-first by size: a candidate is interesting only if all its
  // proper subsets are "covered" (contained in some minimal model), which
  // by induction means no previously found set is a subset.
  //
  // Each level runs in three deterministic stages so the per-candidate
  // coverage scan (the hot loop: |candidates| × |minimal| containment
  // tests) can fan out over `opts_.num_threads`:
  //  1. generate the level's candidates in the canonical (base, v) order,
  //     filtering against `found` — sound because found sets of the
  //     *current* size never subsume a distinct same-size candidate, so
  //     only strictly smaller (prior-level) sets matter, and those are all
  //     present before the level starts;
  //  2. check coverage in parallel (pure reads of `minimal`; verdicts land
  //     in an index-addressed byte buffer, so no element races and no
  //     dependence on thread count);
  //  3. merge sequentially in candidate order, reproducing exactly the
  //     sequential found/next interleaving.
  const CancelToken* cancel =
      opts_.budget ? opts_.budget->cancel_token().get() : nullptr;
  std::vector<std::vector<Var>> frontier{{}};  // sets of the previous size
  for (int size = 1; size <= max_size && size <= n; ++size) {
    if (opts_.budget != nullptr && opts_.budget->Exhausted()) {
      return opts_.budget->ToStatus();
    }
    std::vector<std::vector<Var>> candidates;
    for (const auto& base : frontier) {
      Var start = base.empty() ? 0 : base.back() + 1;
      for (Var v = start; v < n; ++v) {
        std::vector<Var> cand = base;
        cand.push_back(v);
        // Skip if a found (smaller) entailed set is inside cand.
        bool subsumed = false;
        for (const auto& f : found) {
          if (std::includes(cand.begin(), cand.end(), f.begin(), f.end())) {
            subsumed = true;
            break;
          }
        }
        if (!subsumed) candidates.push_back(std::move(cand));
      }
    }

    std::vector<uint8_t> covered(candidates.size(), 0);
    ParallelFor(static_cast<int64_t>(candidates.size()), opts_.num_threads,
                cancel, [&](int64_t i) {
                  const std::vector<Var>& cand =
                      candidates[static_cast<size_t>(i)];
                  for (const auto& m : minimal) {
                    bool inside = true;
                    for (Var x : cand) {
                      if (!m.Contains(x)) {
                        inside = false;
                        break;
                      }
                    }
                    if (inside) {
                      covered[static_cast<size_t>(i)] = 1;
                      return;
                    }
                  }
                });

    // A cancelled scan leaves `covered` partially computed; merging it
    // would misclassify unchecked candidates as entailed.
    if (cancel != nullptr && cancel->cancelled()) {
      return BudgetOrUnknownStatus(opts_.budget,
                                   "EGCWA clause scan cancelled");
    }
    std::vector<std::vector<Var>> next;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (covered[i]) {
        next.push_back(std::move(candidates[i]));  // still alive; grow later
      } else {
        found.push_back(std::move(candidates[i]));  // minimal entailed clause
      }
    }
    frontier = std::move(next);
  }
  return found;
}

}  // namespace dd
