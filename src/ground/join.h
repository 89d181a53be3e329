// Ground tuples and the one backtracking join over them. The grounder
// (ground/grounder.h) closes a program's rules under derivation and emits
// its instances with this join; template enumeration (tmpl/enumerate.h)
// joins a template's conjuncts against the atoms a grounded database
// mentions with the same join.
#ifndef DD_GROUND_JOIN_H_
#define DD_GROUND_JOIN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "ground/ast.h"
#include "logic/database.h"

namespace dd {
namespace ground {

using Tuple = std::vector<std::string>;

/// Per predicate, its ground argument tuples in insertion order, plus a
/// membership test (Insert reports whether a tuple is new).
class TupleIndex {
 public:
  /// Adds pred(args); false when it was already present.
  bool Insert(const std::string& pred, Tuple args);
  /// pred's tuples (empty when none). Insert appends without moving the
  /// tuples already there, so a join may insert while it walks them.
  const std::deque<Tuple>& Tuples(const std::string& pred) const;
  int64_t size() const { return size_; }

 private:
  struct Entry {
    std::set<Tuple> seen;
    std::deque<Tuple> tuples;
  };
  std::unordered_map<std::string, Entry> by_pred_;
  int64_t size_ = 0;
};

/// A database's clause-mentioned atoms as tuples, plus the constants
/// those tuples mention, sorted (the universe a join expands over).
struct MentionIndex {
  TupleIndex tuples;
  std::vector<std::string> universe;
};

/// The atoms some clause of `db` mentions, split back from the grounder's
/// "p(c1,c2)" names. A name without a well-formed argument list (none, or
/// one with an empty argument such as "p()" or "p(a,,b)") is an arity-0
/// atom under its full name.
MentionIndex IndexDatabase(const Database& db);

/// A substitution: the constant bound to each of a join's variables, in
/// the join's variable order (nullptr while unbound).
using Binding = std::vector<const std::string*>;

/// Binds `atoms` left to right against a TupleIndex, then expands every
/// variable still unbound over a universe, first variable fastest. With
/// no atoms this is the full universe^|vars| odometer.
class Join {
 public:
  /// `vars` lists every variable of `atoms` plus any to expand, and fixes
  /// the Binding order.
  Join(const std::vector<PredAtom>& atoms, std::vector<std::string> vars);

  /// Calls `emit` once per substitution until it returns false. Returns
  /// false iff `emit` stopped the join.
  bool Run(const TupleIndex& idx, const std::vector<std::string>& universe,
           const std::function<bool(const Binding&)>& emit) const;

  /// The argument tuple resp. "p(c1,c2)" name of `a` under `b`; every
  /// variable of `a` must be one of the join's.
  Tuple Args(const PredAtom& a, const Binding& b) const;
  std::string Name(const PredAtom& a, const Binding& b) const;

 private:
  struct Pattern {
    std::string pred;
    std::vector<int> slots;        ///< variable index, or -1 for a constant
    std::vector<std::string> constants;
  };

  int Slot(const std::string& var) const;
  bool Bind(size_t i, const TupleIndex& idx,
            const std::vector<std::string>& universe, Binding* b,
            const std::function<bool(const Binding&)>& emit) const;
  bool Expand(size_t n, const std::vector<std::string>& universe, Binding* b,
              const std::function<bool(const Binding&)>& emit) const;

  std::vector<Pattern> patterns_;
  std::vector<std::string> vars_;
};

}  // namespace ground
}  // namespace dd

#endif  // DD_GROUND_JOIN_H_
