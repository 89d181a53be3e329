#include "tmpl/template.h"

#include <set>

#include "core/reasoner.h"
#include "ground/parser.h"

namespace dd {
namespace tmpl {

bool Template::IsSafe() const {
  std::set<std::string> positive;
  for (const ground::PredAtom& a : pos) {
    for (const ground::Term& t : a.args) {
      if (t.is_variable) positive.insert(t.name);
    }
  }
  for (const std::string& v : vars) {
    if (positive.find(v) == positive.end()) return false;
  }
  return true;
}

std::string Template::ToString() const {
  std::string out;
  for (const ground::PredAtom& a : pos) {
    if (!out.empty()) out += ", ";
    out += a.ToString();
  }
  for (const ground::PredAtom& a : neg) {
    if (!out.empty()) out += ", ";
    out += "not " + a.ToString();
  }
  return out;
}

Result<Template> ParseTemplate(std::string_view text) {
  // A template IS a rule body; parsing ":- <text>." reuses the
  // first-order grammar (terms, comments, hardening) verbatim.
  std::string wrapped = ":- ";
  wrapped += text;
  wrapped += ".";
  auto prog = ground::ParseProgram(wrapped);
  if (!prog.ok()) {
    return Status::InvalidArgument("template: " + prog.status().message());
  }
  if (prog->rules.size() != 1 || !prog->rules[0].heads.empty()) {
    return Status::InvalidArgument(
        "template must be a single conjunction of atoms, got: " +
        std::string(text));
  }
  Template t;
  t.pos = std::move(prog->rules[0].pos_body);
  t.neg = std::move(prog->rules[0].neg_body);
  if (t.pos.empty() && t.neg.empty()) {
    return Status::InvalidArgument("empty template");
  }
  // Variables in first-occurrence order (positive conjuncts first — the
  // order a reader sees them in ToString()).
  std::set<std::string> seen;
  auto collect = [&](const std::vector<ground::PredAtom>& atoms) {
    for (const ground::PredAtom& a : atoms) {
      for (const ground::Term& term : a.args) {
        if (term.is_variable && seen.insert(term.name).second) {
          t.vars.push_back(term.name);
        }
      }
    }
  };
  collect(t.pos);
  collect(t.neg);
  if (!t.IsSafe()) {
    return Status::InvalidArgument(
        "unsafe template (variable outside the positive conjuncts): " +
        t.ToString());
  }
  return t;
}

namespace {

/// The ground name of `a` under `binding` (parallel to t.vars).
std::string InstanceName(const Template& t, const ground::PredAtom& a,
                         const std::vector<std::string>& binding) {
  if (a.args.empty()) return a.predicate;
  std::string name = a.predicate;
  name += '(';
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (i) name += ',';
    const ground::Term& term = a.args[i];
    if (!term.is_variable) {
      name += term.name;
      continue;
    }
    size_t v = 0;
    while (t.vars[v] != term.name) ++v;
    name += binding[v];
  }
  name += ')';
  return name;
}

}  // namespace

batch::BatchQuery InstantiateQuery(const Template& t,
                                   const std::vector<std::string>& binding,
                                   batch::BatchMode mode) {
  // Skeptical single-conjunct templates take the literal lane; brave
  // batches disjunct-split formulas, so they always get formula text.
  if (mode == batch::BatchMode::kSkeptical &&
      t.pos.size() + t.neg.size() == 1) {
    if (!t.pos.empty()) {
      return batch::BatchQuery{InstanceName(t, t.pos[0], binding), true};
    }
    // Build with += rather than `"not " + <temporary>`: GCC 12's -Wrestrict
    // false-positives on operator+(const char*, string&&) under -O2 (PR
    // 105329) and the release leg compiles with -Werror.
    std::string lit = "not ";
    lit += InstanceName(t, t.neg[0], binding);
    return batch::BatchQuery{std::move(lit), true};
  }
  std::string f;
  for (const ground::PredAtom& a : t.pos) {
    if (!f.empty()) f += " & ";
    f += InstanceName(t, a, binding);
  }
  for (const ground::PredAtom& a : t.neg) {
    if (!f.empty()) f += " & ";
    f += '~';
    f += InstanceName(t, a, binding);
  }
  return batch::BatchQuery{std::move(f), false};
}

batch::BatchQuery BuildQuery(const Template& t,
                             const std::vector<std::string>& binding,
                             Reasoner* r) {
  // Atoms resolve in the text's left-to-right order, so fresh ones get
  // the Vars the parser would have given them.
  std::vector<Formula> conjuncts;
  conjuncts.reserve(t.pos.size() + t.neg.size());
  for (const ground::PredAtom& a : t.pos) {
    conjuncts.push_back(
        FormulaNode::MakeAtom(r->InternQueryAtom(InstanceName(t, a, binding))));
  }
  for (const ground::PredAtom& a : t.neg) {
    conjuncts.push_back(FormulaNode::MakeNot(FormulaNode::MakeAtom(
        r->InternQueryAtom(InstanceName(t, a, binding)))));
  }
  // MakeAnd of one conjunct is that conjunct: the literal lane's shape.
  batch::BatchQuery q;
  q.formula = FormulaNode::MakeAnd(std::move(conjuncts));
  return q;
}

}  // namespace tmpl
}  // namespace dd
