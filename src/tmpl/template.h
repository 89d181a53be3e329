// First-order query templates: non-ground conjunctive queries whose
// answers are the substitutions θ (over the Herbrand universe) for which
// the instantiated query is inferred.
//
//   answers gcwa color(X, red)          →  { X=n1, X=n4, ... }
//   answers dsm  edge(X, Y), not cut(X) →  { (X=a,Y=b), ... }
//
// A template is the body of a first-order rule (ground/ast.h term syntax):
// a conjunction of predicate atoms, each optionally negated with `not`,
// over variables (uppercase / '_' initial) and constants. Templates must
// be *safe*: every variable occurs in at least one positive conjunct —
// the same Datalog safety condition the grounder enforces, and what makes
// the answer set finite and domain-independent.
//
// The template subsystem (docs/TEMPLATES.md) compiles one template into a
// propositional query batch: tmpl/enumerate.h derives the candidate
// substitutions without materializing the full constant cross-product,
// and tmpl/answer.h routes every instantiation through one
// Reasoner::AnswerBatch / AnswerBatchCredulous call so all instantiations
// share a single database fingerprint, model bank, and answer cache.
#ifndef DD_TMPL_TEMPLATE_H_
#define DD_TMPL_TEMPLATE_H_

#include <string>
#include <string_view>
#include <vector>

#include "batch/query_batch.h"
#include "ground/ast.h"
#include "util/status.h"

namespace dd {

class Reasoner;

namespace tmpl {

/// A parsed template: positive and negated conjuncts plus the free
/// variables in first-occurrence order (the answer-tuple column order).
struct Template {
  std::vector<ground::PredAtom> pos;
  std::vector<ground::PredAtom> neg;
  std::vector<std::string> vars;

  /// Datalog safety: every variable occurs in some positive conjunct.
  bool IsSafe() const;
  /// Renders "p(X,a), not q(X)" (canonical spacing).
  std::string ToString() const;
};

/// Parses template text like "color(X, red), not bad(X)". Reuses the
/// first-order rule parser (the template is parsed as a rule body), so
/// term syntax, comments and hardening match ground/parser.h exactly.
/// Unsafe templates are rejected here — an unsafe template's answer set
/// would depend on the universe, not the database.
Result<Template> ParseTemplate(std::string_view text);

/// Compiles one candidate binding (parallel to t.vars) into a batch
/// query, by text. Single conjuncts become literal queries in skeptical
/// mode (the cheaper InfersLiteral path); everything else renders as a
/// conjunction formula "p(a) & ~q(b)". Atom names are "p(c1,c2)" (the bare
/// predicate for arity 0), byte-identical to the names the grounder
/// interns, which is what lets instantiated queries hit the grounded
/// database's vocabulary. The sequential entry points (naive mode) take
/// this form.
batch::BatchQuery InstantiateQuery(const Template& t,
                                   const std::vector<std::string>& binding,
                                   batch::BatchMode mode);

/// The same query as InstantiateQuery in either mode, pre-built as a
/// Formula over r's vocabulary (BatchQuery::formula, no text), so
/// AnswerBatch skips the parser. Atoms resolve through
/// Reasoner::InternQueryAtom: an atom no clause mentions is interned, and
/// r's engines rebuilt, exactly as parsing the text would. The formula has
/// the parsed text's shape, so batch::Canonicalize gives both one key and
/// the answer cache one entry.
batch::BatchQuery BuildQuery(const Template& t,
                             const std::vector<std::string>& binding,
                             Reasoner* r);

}  // namespace tmpl
}  // namespace dd

#endif  // DD_TMPL_TEMPLATE_H_
