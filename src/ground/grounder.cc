#include "ground/grounder.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "ground/join.h"
#include "ground/parser.h"
#include "util/string_util.h"

namespace dd {
namespace ground {

namespace {

bool HasNegation(const FoProgram& prog) {
  for (const FoRule& r : prog.rules) {
    if (!r.neg_body.empty()) return true;
  }
  return false;
}

Status Unsafe(const FoRule& r) {
  return Status::FailedPrecondition(
      "unsafe rule (variable outside the positive body): " + r.ToString());
}

Status TooManyClauses(int64_t max_clauses) {
  return Status::ResourceExhausted(
      StrFormat("grounding exceeded %lld clauses",
                static_cast<long long>(max_clauses)));
}

/// A rule's atoms resolved against the grounding's TupleIndex, once per
/// grounding: the closure and the emission join and instantiate these.
struct CompiledRule {
  std::vector<AtomPattern> heads, pos, neg;
  size_t num_vars = 0;
};

/// A TupleIndex over the program's universe with every predicate the
/// program mentions interned, and the rules resolved against it.
TupleIndex ProgramIndex(const FoProgram& prog,
                        std::vector<CompiledRule>* rules) {
  TupleIndex idx(prog.Constants());
  for (const FoRule& r : prog.rules) {
    for (const auto* atoms : {&r.heads, &r.pos_body, &r.neg_body}) {
      for (const PredAtom& a : *atoms) {
        idx.InternPredicate(a.predicate, a.arity());
      }
    }
  }
  rules->reserve(prog.rules.size());
  for (const FoRule& r : prog.rules) {
    const std::vector<std::string> vars = r.Variables();
    rules->push_back({Resolve(r.heads, vars, idx),
                      Resolve(r.pos_body, vars, idx),
                      Resolve(r.neg_body, vars, idx), vars.size()});
  }
  return idx;
}

// Fills `closure` with the derivable closure: the least set of ground atoms
// that holds the heads of every rule instance whose positive body it holds.
// Head variables outside the body (unsafe rules) expand over the universe.
// Semi-naive: rules without a body fire once; after that each round joins
// every rule once per body atom, that atom restricted to the tuples the
// previous round derived (the delta), the atoms before it to older tuples
// and the atoms after it to all tuples the round started with. Every
// combination with a delta tuple is joined exactly once, at its first
// delta atom. Every closure atom is a head of an emitted clause, so the
// closure never needs more than max_clauses × (largest head count) tuples;
// past that it fails like the emission would.
Status Closure(const std::vector<CompiledRule>& rules, int64_t max_clauses,
               TupleIndex* closure) {
  int64_t max_heads = 1;
  for (const CompiledRule& r : rules) {
    max_heads = std::max<int64_t>(max_heads, r.heads.size());
  }
  const int64_t limit =
      max_clauses > std::numeric_limits<int64_t>::max() / max_heads
          ? std::numeric_limits<int64_t>::max()
          : max_clauses * max_heads;

  std::vector<int> scratch;
  auto derive = [&](const CompiledRule& r, const Join& join,
                    const std::vector<Join::Range>* ranges) {
    return join.Run(
        *closure,
        [&](const Binding& b) {
          for (const AtomPattern& h : r.heads) {
            h.Instantiate(b, &scratch);
            closure->Insert(h.pred, scratch.data());
          }
          return closure->size() <= limit;
        },
        ranges);
  };
  struct DeltaJoins {
    const CompiledRule* rule;
    std::vector<Join> by_lead;  ///< one per body atom, that atom leading
  };
  std::vector<DeltaJoins> recursive;
  for (const CompiledRule& r : rules) {
    if (r.heads.empty()) continue;  // derives nothing
    if (r.pos.empty()) {
      if (!derive(r, Join({}, r.num_vars), nullptr)) {
        return TooManyClauses(max_clauses);
      }
      continue;
    }
    DeltaJoins& d = recursive.emplace_back();
    d.rule = &r;
    for (size_t a = 0; a < r.pos.size(); ++a) {
      d.by_lead.emplace_back(r.pos, r.num_vars, static_cast<int>(a));
    }
  }

  // Per predicate, the delta is tuple ids [old, now).
  const size_t num_preds = static_cast<size_t>(closure->num_predicates());
  std::vector<int> old(num_preds, 0);
  std::vector<int> now(num_preds, 0);
  std::vector<Join::Range> ranges;
  for (bool grew = true; grew;) {
    for (size_t p = 0; p < num_preds; ++p) {
      now[p] = closure->Count(static_cast<int>(p));
    }
    for (const DeltaJoins& d : recursive) {
      const std::vector<AtomPattern>& body = d.rule->pos;
      for (size_t a = 0; a < body.size(); ++a) {
        if (old[body[a].pred] == now[body[a].pred]) continue;  // no delta
        ranges.resize(body.size());
        for (size_t j = 0; j < body.size(); ++j) {
          const int pred = body[j].pred;
          ranges[j] = j < a    ? Join::Range{0, old[pred]}
                      : j == a ? Join::Range{old[pred], now[pred]}
                               : Join::Range{0, now[pred]};
        }
        if (!derive(*d.rule, d.by_lead[a], &ranges)) {
          return TooManyClauses(max_clauses);
        }
      }
    }
    grew = false;
    for (size_t p = 0; p < num_preds; ++p) {
      grew = grew || closure->Count(static_cast<int>(p)) > now[p];
    }
    old.swap(now);
  }
  return Status::OK();
}

/// Hash and equality over the clauses of a Database, by index, that also
/// take a Clause: an unordered_set of indices then finds a clause without
/// copying it.
struct ClauseHash {
  using is_transparent = void;
  const Database* db;
  size_t operator()(const Clause& c) const {
    size_t h = 0;
    for (const auto* part : {&c.heads(), &c.pos_body(), &c.neg_body()}) {
      for (Var v : *part) h = h * 1000003 + static_cast<size_t>(v);
      h = h * 1000003 + 0x9e3779b9;
    }
    return h;
  }
  size_t operator()(int i) const { return (*this)(db->clauses()[i]); }
};

struct ClauseEq {
  using is_transparent = void;
  const Database* db;
  const Clause& Get(const Clause& c) const { return c; }
  const Clause& Get(int i) const { return db->clauses()[i]; }
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return Get(a) == Get(b);
  }
};

// Emits every rule instance into `db`, deduplicated: the positive body
// joined against `atoms` when `relevance` is set (atoms then holds the
// closure), else the bare universe odometer over the rule's variables.
// Every ground atom is named and interned into the vocabulary once, on its
// first occurrence (so in the order the names first appear), and looked up
// by tuple after that.
Status EmitInstances(const std::vector<CompiledRule>& rules, bool relevance,
                     int64_t max_clauses, TupleIndex* atoms, Database* db) {
  std::vector<std::vector<Var>> names(
      static_cast<size_t>(atoms->num_predicates()));
  std::vector<int> scratch;
  auto intern = [&](const std::vector<AtomPattern>& ps, const Binding& b) {
    std::vector<Var> out;
    out.reserve(ps.size());
    for (const AtomPattern& p : ps) {
      p.Instantiate(b, &scratch);
      const int id = atoms->Insert(p.pred, scratch.data()).first;
      std::vector<Var>& cache = names[p.pred];
      if (static_cast<size_t>(id) >= cache.size()) {
        cache.resize(static_cast<size_t>(id) + 1, kInvalidVar);
      }
      if (cache[id] == kInvalidVar) {
        cache[id] =
            db->vocabulary().Intern(atoms->Name(p.pred, scratch.data()));
      }
      out.push_back(cache[id]);
    }
    return out;
  };
  std::unordered_set<int, ClauseHash, ClauseEq> seen(16, ClauseHash{db},
                                                     ClauseEq{db});
  for (const CompiledRule& r : rules) {
    const Join join(relevance ? r.pos : std::vector<AtomPattern>{},
                    r.num_vars);
    // Without the filter the join has no atoms, so inserting into `atoms`
    // cannot disturb it; with it every atom is already in the closure.
    const bool within = join.Run(*atoms, [&](const Binding& b) {
      // Interned in rule order: heads, positive body, negative body.
      std::vector<Var> h = intern(r.heads, b);
      std::vector<Var> p = intern(r.pos, b);
      Clause clause(std::move(h), std::move(p), intern(r.neg, b));
      if (seen.find(clause) != seen.end()) return true;
      db->AddClause(std::move(clause));
      seen.insert(db->num_clauses() - 1);
      return db->num_clauses() <= max_clauses;
    });
    if (!within) return TooManyClauses(max_clauses);
  }
  return Status::OK();
}

// Grounds `program` whose rules have already passed the safety checks the
// caller wants (each rule is checked once per grounding).
Result<Database> GroundChecked(const FoProgram& program, bool relevance,
                               int64_t max_clauses) {
  std::vector<CompiledRule> rules;
  TupleIndex atoms = ProgramIndex(program, &rules);
  if (relevance) DD_RETURN_IF_ERROR(Closure(rules, max_clauses, &atoms));
  Database db;
  DD_RETURN_IF_ERROR(EmitInstances(rules, relevance, max_clauses, &atoms, &db));
  return db;
}

}  // namespace

Result<Database> Ground(const FoProgram& program, const GroundOptions& opts) {
  if (opts.require_safety) {
    for (const FoRule& r : program.rules) {
      if (!r.IsSafe()) return Unsafe(r);
    }
  }
  return GroundChecked(program, opts.relevance_filter && !HasNegation(program),
                       opts.max_clauses);
}

Result<Database> GroundProgramText(std::string_view text,
                                   const GroundOptions& opts) {
  DD_ASSIGN_OR_RETURN(FoProgram prog, ParseProgram(text));
  return Ground(prog, opts);
}

Result<Database> GroundBottomUp(const FoProgram& program,
                                const GroundOptions& opts) {
  for (const FoRule& r : program.rules) {
    if (!r.neg_body.empty()) {
      return Status::FailedPrecondition(
          "GroundBottomUp handles deductive programs only (no negation): " +
          r.ToString());
    }
    if (!r.IsSafe()) return Unsafe(r);
  }
  return GroundChecked(program, /*relevance=*/true, opts.max_clauses);
}

}  // namespace ground
}  // namespace dd
