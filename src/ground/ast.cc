#include "ground/ast.h"

#include <algorithm>
#include <set>

namespace dd {
namespace ground {

bool PredAtom::IsGround() const {
  for (const Term& t : args) {
    if (t.is_variable) return false;
  }
  return true;
}

std::string PredAtom::ToString() const {
  if (args.empty()) return predicate;
  std::string out = predicate + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i) out += ",";
    out += args[i].name;
  }
  out += ")";
  return out;
}

std::vector<std::string> FoRule::Variables() const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  auto collect = [&](const std::vector<PredAtom>& atoms) {
    for (const PredAtom& a : atoms) {
      for (const Term& t : a.args) {
        if (t.is_variable && seen.insert(t.name).second) {
          out.push_back(t.name);
        }
      }
    }
  };
  collect(heads);
  collect(pos_body);
  collect(neg_body);
  return out;
}

bool FoRule::IsSafe() const {
  auto positive = [&](const std::string& var) {
    for (const PredAtom& a : pos_body) {
      for (const Term& t : a.args) {
        if (t.is_variable && t.name == var) return true;
      }
    }
    return false;
  };
  for (const auto* atoms : {&heads, &neg_body}) {
    for (const PredAtom& a : *atoms) {
      for (const Term& t : a.args) {
        if (t.is_variable && !positive(t.name)) return false;
      }
    }
  }
  return true;
}

std::string FoRule::ToString() const {
  std::string out;
  for (size_t i = 0; i < heads.size(); ++i) {
    if (i) out += " | ";
    out += heads[i].ToString();
  }
  if (!pos_body.empty() || !neg_body.empty()) {
    out += heads.empty() ? ":- " : " :- ";
    bool first = true;
    for (const PredAtom& a : pos_body) {
      if (!first) out += ", ";
      first = false;
      out += a.ToString();
    }
    for (const PredAtom& a : neg_body) {
      if (!first) out += ", ";
      first = false;
      out += "not ";  // append-style: gcc-12 -Wrestrict false positive
      out += a.ToString();
    }
  }
  out += ".";
  return out;
}

std::vector<std::string> FoProgram::Constants() const {
  std::vector<std::string> consts;
  auto collect = [&](const std::vector<PredAtom>& atoms) {
    for (const PredAtom& a : atoms) {
      for (const Term& t : a.args) {
        if (!t.is_variable) consts.push_back(t.name);
      }
    }
  };
  for (const FoRule& r : rules) {
    collect(r.heads);
    collect(r.pos_body);
    collect(r.neg_body);
  }
  std::sort(consts.begin(), consts.end());
  consts.erase(std::unique(consts.begin(), consts.end()), consts.end());
  return consts;
}

std::string FoProgram::ToString() const {
  std::string out;
  for (const FoRule& r : rules) {
    out += r.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace ground
}  // namespace dd
