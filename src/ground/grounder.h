// Grounding: instantiating a first-order program over its Herbrand
// universe into a propositional Database, the form the paper (and the rest
// of this library) works with.
#ifndef DD_GROUND_GROUNDER_H_
#define DD_GROUND_GROUNDER_H_

#include <cstdint>

#include "ground/ast.h"
#include "logic/database.h"
#include "util/status.h"

namespace dd {
namespace ground {

/// Grounding limits and policies.
struct GroundOptions {
  /// Upper bound on emitted ground clauses (ResourceExhausted beyond). The
  /// derivable closure is held to the tuples that many clauses can carry.
  int64_t max_clauses = 1000000;
  /// Reject rules whose variables do not all occur in the positive body
  /// (Datalog safety). When false, unsafe rules are instantiated over the
  /// full universe.
  bool require_safety = true;
  /// Drop ground rules whose positive body mentions a ground atom outside
  /// the head-derivable closure (an atom-level relevance filter that
  /// typically shrinks the grounding by orders of magnitude). The filtered
  /// grounding IS GroundBottomUp's: one closure, one emission join, so the
  /// two emit the same clauses — hence the same util/fingerprint key — on
  /// safe deductive programs, and share answer-cache and model-bank
  /// entries.
  ///
  /// SOUNDNESS SCOPE: the filter preserves every semantics whose intended
  /// models live inside the head-derivable closure — GCWA, EGCWA, full
  /// ECWA (P = V), DDR, PWS, DSM, PERF on deductive programs. It can
  /// change answers for ECWA/CCWA with floating (Z) atoms, whose minimal
  /// models may carry junk outside the closure that dropped clauses would
  /// have constrained, and it is automatically disabled for programs with
  /// negation. Off by default; enable for the CWA/fixpoint family.
  bool relevance_filter = false;
};

/// Grounds `program` into a propositional Database. Ground atoms are named
/// "p(c1,c2)"; propositional atoms keep their bare name.
Result<Database> Ground(const FoProgram& program,
                        const GroundOptions& opts = {});

/// Convenience: parse + ground in one step.
Result<Database> GroundProgramText(std::string_view text,
                                   const GroundOptions& opts = {});

/// Bottom-up grounding for *deductive* programs (no negation; safety
/// required): Ground() with the relevance filter on. It joins positive
/// bodies against the derivable closure instead of enumerating the full
/// universe^variables space, so it carries the filter's soundness scope
/// (see above). It is the right grounder for the GCWA/EGCWA/DDR/PWS/DSM
/// family and typically orders of magnitude smaller and faster than plain
/// Ground() on Datalog-style programs.
Result<Database> GroundBottomUp(const FoProgram& program,
                                const GroundOptions& opts = {});

}  // namespace ground
}  // namespace dd

#endif  // DD_GROUND_GROUNDER_H_
