// Candidate-substitution enumeration for query templates.
//
// The naive answer procedure instantiates a template over
// universe^|vars| — exponential in the variable count and almost all
// wasted: an instantiation whose positive conjuncts are not even
// mentioned by the database is false in every intended model under every
// implemented semantics (with the default minimize-everything partition),
// so it can never be an answer.
//
// EnumerateBindings joins the template's positive conjuncts against the
// ground tuples the database's clauses mention (ground::IndexDatabase,
// built once per Reasoner by Reasoner::mention_index, with the grounder's
// own ground::Join) — relevance pruning that never
// materializes the constant cross-product. The full-universe odometer
// remains available (EnumerateOptions::prune = false) for the cases where
// pruning is unsound; tmpl/answer.h owns that gate (docs/TEMPLATES.md
// §soundness).
#ifndef DD_TMPL_ENUMERATE_H_
#define DD_TMPL_ENUMERATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ground/join.h"
#include "tmpl/template.h"
#include "util/status.h"

namespace dd {
namespace tmpl {

struct EnumerateOptions {
  /// Candidate cap: enumeration beyond this fails ResourceExhausted
  /// (the template analogue of GroundOptions::max_clauses).
  int64_t max_candidates = 1000000;
  /// Join against clause-mentioned tuples (true) or run the full
  /// universe^|vars| odometer (false).
  bool prune = true;
};

/// The candidate bindings of `t` (each parallel to t.vars) over the
/// tuples and universe ground::IndexDatabase reads from a database, sorted
/// lexicographically and deduplicated — a deterministic order independent
/// of join order and thread count. A template with no variables has
/// exactly one (empty) candidate.
Result<std::vector<std::vector<std::string>>> EnumerateBindings(
    const Template& t, const ground::TupleIndex& idx,
    const EnumerateOptions& opts);

/// |universe|^exp, saturating at INT64_MAX (the pruning-denominator stat).
int64_t SaturatingPow(int64_t base, size_t exp);

}  // namespace tmpl
}  // namespace dd

#endif  // DD_TMPL_ENUMERATE_H_
