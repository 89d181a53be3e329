// Query-directed relevance slicing and module decomposition.
//
// Two structural restrictions of a database, both purely syntactic:
//
//   * the *cone of influence* of a query atom set: the least atom set R
//     containing the roots and closed under "a clause with a head in R
//     contributes all its atoms" — every derivation of a root lives inside
//     the cone's clauses (the slice);
//
//   * the *modules*: connected components of the clause hypergraph (two
//     atoms are connected when some clause mentions both). Modules are
//     unions of SCCs of strat/DependencyGraph and, on positive databases,
//     minimal models factor as independent products over them.
//
// Both yield head-closed sub-databases, which is the premise of the
// slicing soundness theorem (docs/ANALYSIS.md): for positive databases,
// {M ∩ R : M ∈ MM(DB)} = MM(slice)↾R, and the DDR/PWS fixpoint and
// possible-model constructions restrict the same way. The per-semantics
// gate (which semantics may be answered on the slice) is SliceIsSound in
// analysis/dispatch.h; this module is policy-free.
#ifndef DD_ANALYSIS_SLICER_H_
#define DD_ANALYSIS_SLICER_H_

#include <vector>

#include "logic/database.h"
#include "logic/interpretation.h"
#include "logic/types.h"

namespace dd {
namespace analysis {

/// A head-closed restriction of the database.
struct SliceResult {
  Interpretation relevant;         ///< the atom cone R
  std::vector<int> clause_indices; ///< exactly the clauses with a head in R,
                                   ///< ascending
  bool proper = false;             ///< strictly fewer clauses than the DB
};

/// A slice materialized as a database of its own (Slicer::MakeSubDatabase).
struct SubDatabase {
  /// The slice's clauses over a compact vocabulary: exactly the slice's
  /// atoms, renumbered 0..k-1 in ascending parent-Var order.
  Database db;
  /// Local Var -> parent Var, ascending, so the renumbering is monotone.
  std::vector<Var> to_parent;
};

/// The index of parent atom `v` in the ascending list `atoms` (its local
/// Var in the numbering `atoms` defines), or kInvalidVar when absent.
Var LocalVar(const std::vector<Var>& atoms, Var v);

/// `local`, an interpretation in the numbering `atoms` defines, lifted to
/// a parent interpretation over `parent_width` atoms: atom i of `local`
/// becomes atoms[i]; every atom outside `atoms` is false.
Interpretation LiftToParent(const Interpretation& local,
                            const std::vector<Var>& atoms, int parent_width);

/// Precomputed incidence structure for one database. Keeps its own copy of
/// the database (like FastPathEngine), so it stays valid when the owning
/// facade moves; the Reasoner drops it whenever the vocabulary grows.
class Slicer {
 public:
  explicit Slicer(Database db);

  const Database& db() const { return db_; }

  /// Cone of influence of `roots` (directed, head-downward closure).
  SliceResult Cone(const std::vector<Var>& roots) const;

  /// Union of the modules containing `roots` (undirected closure); always
  /// a superset of Cone(roots).
  SliceResult ModuleUnion(const std::vector<Var>& roots) const;

  /// Dense module id per atom; atoms mentioned in no clause are singleton
  /// modules.
  const std::vector<int>& module_ids() const { return module_id_; }
  int num_modules() const { return num_modules_; }

  /// Materializes the slice as a compact database: its vocabulary is
  /// slice.relevant — the atoms the slice's clauses mention plus query
  /// roots no slice clause mentions — renumbered in ascending parent-Var
  /// order, and its clauses are slice.clause_indices renamed into that
  /// numbering. An engine over it runs on O(slice) SAT variables, not
  /// O(vocabulary). Callers rename queries in (LocalVar) and models out
  /// (LiftToParent); atoms outside the slice are false in every intended
  /// model of a SliceIsSound semantics, which is what LiftToParent fills.
  SubDatabase MakeSubDatabase(const SliceResult& slice) const;

  /// The atoms the listed clauses mention, ascending.
  std::vector<Var> ClauseAtoms(const std::vector<int>& clause_indices) const;

 private:
  Database db_;
  /// atom -> indices of clauses having it among their heads.
  std::vector<std::vector<int>> head_clauses_;
  /// atom -> indices of clauses mentioning it anywhere.
  std::vector<std::vector<int>> touch_clauses_;
  std::vector<int> module_id_;
  int num_modules_ = 0;
};

}  // namespace analysis
}  // namespace dd

#endif  // DD_ANALYSIS_SLICER_H_
