#include "ground/grounder.h"

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <tuple>
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

// Fills `closure` with the derivable closure: the least set of ground atoms
// that holds the heads of every rule instance whose positive body it holds.
// Head variables outside the body (unsafe rules) expand over the universe.
// Every closure atom is a head of an emitted clause, so the closure never
// needs more than max_clauses × (largest head count) tuples; past that it
// fails like the emission would.
Status Closure(const FoProgram& prog, const std::vector<std::string>& universe,
               int64_t max_clauses, TupleIndex* closure) {
  std::vector<Join> joins;
  int64_t max_heads = 1;
  for (const FoRule& r : prog.rules) {
    joins.emplace_back(r.pos_body, r.Variables());
    max_heads = std::max<int64_t>(max_heads, r.heads.size());
  }
  const int64_t limit =
      max_clauses > std::numeric_limits<int64_t>::max() / max_heads
          ? std::numeric_limits<int64_t>::max()
          : max_clauses * max_heads;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < prog.rules.size(); ++i) {
      if (prog.rules[i].heads.empty()) continue;  // derives nothing
      const Join& join = joins[i];
      const bool within = join.Run(*closure, universe, [&](const Binding& b) {
        for (const PredAtom& h : prog.rules[i].heads) {
          if (closure->Insert(h.predicate, join.Args(h, b))) changed = true;
        }
        return closure->size() <= limit;
      });
      if (!within) return TooManyClauses(max_clauses);
    }
  }
  return Status::OK();
}

// Emits every rule instance into `db`, deduplicated: the positive body
// joined against `closure` when there is one, else the bare universe
// odometer over the rule's variables.
Status EmitInstances(const FoProgram& prog, const TupleIndex* closure,
                     const std::vector<std::string>& universe,
                     int64_t max_clauses, Database* db) {
  const TupleIndex none;
  const std::vector<PredAtom> no_atoms;
  std::set<std::tuple<std::vector<Var>, std::vector<Var>, std::vector<Var>>>
      seen;
  int64_t emitted = 0;
  for (const FoRule& r : prog.rules) {
    const Join join(closure != nullptr ? r.pos_body : no_atoms,
                    r.Variables());
    auto intern = [&](const std::vector<PredAtom>& atoms, const Binding& b) {
      std::vector<Var> out;
      out.reserve(atoms.size());
      for (const PredAtom& a : atoms) {
        out.push_back(db->vocabulary().Intern(join.Name(a, b)));
      }
      return out;
    };
    const bool within = join.Run(
        closure != nullptr ? *closure : none, universe,
        [&](const Binding& b) {
          // Interned in rule order: heads, positive body, negative body.
          std::vector<Var> heads = intern(r.heads, b);
          std::vector<Var> pos = intern(r.pos_body, b);
          Clause clause(std::move(heads), std::move(pos),
                        intern(r.neg_body, b));
          if (!seen.emplace(clause.heads(), clause.pos_body(),
                            clause.neg_body())
                   .second) {
            return true;
          }
          db->AddClause(std::move(clause));
          return ++emitted <= max_clauses;
        });
    if (!within) return TooManyClauses(max_clauses);
  }
  return Status::OK();
}

}  // namespace

Result<Database> Ground(const FoProgram& program, const GroundOptions& opts) {
  if (opts.require_safety) {
    for (const FoRule& r : program.rules) {
      if (!r.IsSafe()) return Unsafe(r);
    }
  }
  const std::vector<std::string> universe = program.Constants();
  TupleIndex closure;
  const bool relevance = opts.relevance_filter && !HasNegation(program);
  if (relevance) {
    DD_RETURN_IF_ERROR(Closure(program, universe, opts.max_clauses, &closure));
  }
  Database db;
  DD_RETURN_IF_ERROR(EmitInstances(program, relevance ? &closure : nullptr,
                                   universe, opts.max_clauses, &db));
  return db;
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
  GroundOptions bottom_up = opts;
  bottom_up.require_safety = true;
  bottom_up.relevance_filter = true;
  return Ground(program, bottom_up);
}

}  // namespace ground
}  // namespace dd
