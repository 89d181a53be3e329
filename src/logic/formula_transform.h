// Formula transformations: constant folding / flattening and negation
// normal form. Used to keep Tseitin encodings small and query output
// readable; all transformations are logically equivalent (property-tested
// against evaluation on all assignments).
#ifndef DD_LOGIC_FORMULA_TRANSFORM_H_
#define DD_LOGIC_FORMULA_TRANSFORM_H_

#include <functional>

#include "logic/formula.h"

namespace dd {

/// Bottom-up simplification:
///  * constant folding (true/false absorb or vanish in &,|,->,<->,~)
///  * double-negation elimination
///  * flattening of nested conjunctions/disjunctions
///  * deduplication of syntactically identical juncts.
/// The result is equivalent under two-valued semantics. (Kleene semantics
/// are NOT always preserved: e.g. x & ~x simplifies away only where it is
/// two-valued-sound, so no such rewrite is performed here at all — only
/// rewrites sound in both semantics are applied.)
Formula Simplify(const Formula& f);

/// Negation normal form: negation pushed to atoms, '->' and '<->'
/// expanded. Equivalent in both two-valued and strong-Kleene semantics.
Formula ToNnf(const Formula& f);

/// `f` with every atom v replaced by atom rename(v), or by the constant
/// false where rename(v) is kInvalidVar. No other node changes (no
/// folding), so the result has f's shape over the new numbering.
Formula RenameAtoms(const Formula& f, const std::function<Var(Var)>& rename);

/// Structural equality of formula trees.
bool StructurallyEqual(const Formula& a, const Formula& b);

/// Number of AST nodes (for size accounting in tests/benches).
int NodeCount(const Formula& f);

}  // namespace dd

#endif  // DD_LOGIC_FORMULA_TRANSFORM_H_
