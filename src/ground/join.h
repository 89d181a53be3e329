// Ground tuples and the one backtracking join over them. The grounder
// (ground/grounder.h) closes a program's rules under derivation and emits
// its instances with this join; template enumeration (tmpl/enumerate.h)
// joins a template's conjuncts against the atoms a grounded database
// mentions with the same join.
//
// Everything is interned: constants are dense ids in sorted-name order (so
// id order is name order, and the universe odometer runs in the same order
// as over the names), predicates are dense ids per (name, arity), and a
// tuple is a run of constant ids.
#ifndef DD_GROUND_JOIN_H_
#define DD_GROUND_JOIN_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ground/ast.h"
#include "logic/database.h"

namespace dd {
namespace ground {

/// Per predicate, its ground argument tuples in insertion order (a tuple's
/// id is its position there), with a hash membership test and, per
/// argument position, a hash lookup from a constant to the tuples holding
/// it at that position.
class TupleIndex {
 public:
  /// `universe` must be sorted and duplicate-free; constant i is
  /// universe[i].
  explicit TupleIndex(std::vector<std::string> universe = {});

  const std::vector<std::string>& universe() const { return universe_; }
  /// The id of constant `name`, or -1 when it is outside the universe.
  int Constant(const std::string& name) const;

  /// The id of predicate name/arity, interned on first use.
  int InternPredicate(const std::string& name, int arity);
  /// The id of predicate name/arity, or -1 when it was never interned.
  int FindPredicate(const std::string& name, int arity) const;
  int num_predicates() const { return static_cast<int>(rels_.size()); }
  const std::string& PredicateName(int pred) const { return rels_[pred].name; }
  int Arity(int pred) const { return rels_[pred].arity; }

  /// Adds pred(args) (Arity(pred) constant ids, not pointing into this
  /// index). Returns the tuple's id and whether it is new. Ids and the
  /// order of every lookup stay stable.
  std::pair<int, bool> Insert(int pred, const int* args);
  /// pred's tuples are ids 0 .. Count(pred)-1, in insertion order.
  int Count(int pred) const { return rels_[pred].count; }
  /// The constant ids of tuple `id`; valid until the next Insert.
  const int* Args(int pred, int id) const {
    return rels_[pred].args.data() +
           static_cast<size_t>(id) * static_cast<size_t>(rels_[pred].arity);
  }
  /// The first tuple of pred (in id order) whose argument `arg` is
  /// `value`, or -1; Next continues to the following such tuple.
  int First(int pred, int arg, int value) const;
  int Next(int pred, int arg, int id) const {
    const Relation& r = rels_[pred];
    return r.next[static_cast<size_t>(id) * static_cast<size_t>(r.arity) +
                  static_cast<size_t>(arg)];
  }
  /// The "p(c1,c2)" name of pred(args); a bare "p" at arity 0.
  std::string Name(int pred, const int* args) const;
  /// Tuples over all predicates.
  int64_t size() const { return size_; }

 private:
  struct Relation {
    std::string name;
    int arity = 0;
    int count = 0;
    std::vector<int> args;  ///< tuple id * arity + position -> constant
    std::vector<int> next;  ///< same layout -> next tuple id with that
                            ///< constant there, or -1
    /// Open addressing (linear probing, power-of-two size): tuple ids,
    /// -1 for an empty slot.
    std::vector<int> members;
    /// Open addressing: position * |universe| + constant (-1 for an
    /// empty slot) -> the first and last tuple holding that constant
    /// there; `next` links the tuples between.
    std::vector<int64_t> chain_keys;
    std::vector<int> chain_first;
    std::vector<int> chain_last;
    int num_chains = 0;
  };

  /// The members slot holding pred(args), or the empty slot it would take.
  static size_t MemberSlot(const Relation& r, const int* args);
  /// The chain slot of `key`, or the empty slot it would take.
  static size_t ChainSlot(const Relation& r, int64_t key);
  static void GrowMembers(Relation* r);
  static void GrowChains(Relation* r);

  std::vector<std::string> universe_;
  std::unordered_map<std::string, int> constant_ids_;
  std::vector<Relation> rels_;
  /// name -> the ids of the predicates of that name, one per arity
  std::unordered_map<std::string, std::vector<int>> pred_ids_;
  int64_t size_ = 0;
};

/// The atoms some clause of `db` mentions, split back from the grounder's
/// "p(c1,c2)" names, over the constants those atoms mention (sorted). A
/// name without a well-formed argument list (none, or one with an empty
/// argument such as "p()" or "p(a,,b)") is an arity-0 atom under its full
/// name.
TupleIndex IndexDatabase(const Database& db);

/// A substitution: the constant id bound to each of a join's variables, in
/// the join's variable order.
using Binding = std::vector<int>;

/// An atom resolved against a TupleIndex: its predicate id and, per
/// argument, a constant id or the slot of a variable.
struct AtomPattern {
  /// -1 when no tuple of the index can match (predicate never interned,
  /// or a constant outside the universe).
  int pred = -1;
  std::vector<int> slots;      ///< variable index, or -1 for a constant
  std::vector<int> constants;  ///< constant id where slots[k] == -1

  /// Every variable of `a` must be one of `vars`.
  AtomPattern(const PredAtom& a, const std::vector<std::string>& vars,
              const TupleIndex& idx);
  /// The argument tuple under `b` (every slot bound) into `out`.
  void Instantiate(const Binding& b, std::vector<int>* out) const;
};

/// One AtomPattern per atom.
std::vector<AtomPattern> Resolve(const std::vector<PredAtom>& atoms,
                                 const std::vector<std::string>& vars,
                                 const TupleIndex& idx);

/// Binds `atoms` one at a time against a TupleIndex, then expands every
/// variable still unbound over the universe, first variable fastest. With
/// no atoms this is the full universe^|vars| odometer. Each atom probes
/// the per-argument lookup of its first argument that is a constant or a
/// variable an earlier atom bound. It scans its tuples instead when there
/// is no such argument, or when its range starts past id 0 (a semi-naive
/// delta: the range is then the short part).
class Join {
 public:
  /// The tuple ids an atom may match: [lo, hi).
  struct Range {
    int lo = 0;
    int hi = std::numeric_limits<int>::max();
  };

  /// `atoms` are resolved over `num_vars` variables (every variable of
  /// the atoms plus any to expand), against the index the join runs over.
  /// They bind left to right, except that atom `lead` (when >= 0) binds
  /// first.
  Join(const std::vector<AtomPattern>& atoms, size_t num_vars, int lead = -1);

  /// Calls `emit` once per substitution until it returns false. Returns
  /// false iff `emit` stopped the join. `ranges` (when given, one per atom
  /// in `atoms` order) restricts the tuples each atom matches; either way
  /// an atom matches only tuples present when it starts its scan, so
  /// `emit` may insert into `idx`.
  bool Run(const TupleIndex& idx,
           const std::function<bool(const Binding&)>& emit,
           const std::vector<Range>* ranges = nullptr) const;

 private:
  /// How one argument meets a tuple, fixed by the bind order.
  enum class Op : uint8_t { kConstant, kBind, kCheck };
  struct Step {
    int atom;   ///< index into the constructor's `atoms`
    int pred;   ///< -1: matches nothing
    int probe;  ///< argument whose lookup to walk, or -1 to scan
    std::vector<Op> ops;
    std::vector<int> operands;  ///< constant id or variable slot
  };

  bool Bind(size_t i, const TupleIndex& idx, const std::vector<Range>* ranges,
            Binding* b, const std::function<bool(const Binding&)>& emit) const;
  bool Expand(size_t n, int universe, Binding* b,
              const std::function<bool(const Binding&)>& emit) const;

  std::vector<Step> steps_;
  std::vector<int> unbound_;  ///< slots the atoms leave unbound, ascending
  size_t num_vars_;
};

}  // namespace ground
}  // namespace dd

#endif  // DD_GROUND_JOIN_H_
