#include "logic/formula_transform.h"

#include <algorithm>
#include <vector>

#include "util/macros.h"

namespace dd {

namespace {

using FN = FormulaNode;

bool IsConst(const Formula& f, bool value) {
  return f->kind() == FormulaKind::kConst && f->const_value() == value;
}

// Collects juncts of nested same-kind nodes (flattening).
void Flatten(const Formula& f, FormulaKind kind, std::vector<Formula>* out) {
  if (f->kind() == kind) {
    for (const Formula& c : f->children()) Flatten(c, kind, out);
  } else {
    out->push_back(f);
  }
}

// Deduplicates structurally equal juncts (quadratic; formulas are small).
void Dedup(std::vector<Formula>* parts) {
  std::vector<Formula> out;
  for (const Formula& p : *parts) {
    bool dup = false;
    for (const Formula& q : out) {
      if (StructurallyEqual(p, q)) {
        dup = true;
        break;
      }
    }
    if (!dup) out.push_back(p);
  }
  *parts = std::move(out);
}

}  // namespace

Formula RenameAtoms(const Formula& f, const std::function<Var(Var)>& rename) {
  switch (f->kind()) {
    case FormulaKind::kConst:
      return f;
    case FormulaKind::kAtom: {
      const Var v = rename(f->atom());
      return v == kInvalidVar ? FN::MakeConst(false) : FN::MakeAtom(v);
    }
    case FormulaKind::kNot:
      return FN::MakeNot(RenameAtoms(f->children()[0], rename));
    case FormulaKind::kImplies:
      return FN::MakeImplies(RenameAtoms(f->children()[0], rename),
                             RenameAtoms(f->children()[1], rename));
    case FormulaKind::kIff:
      return FN::MakeIff(RenameAtoms(f->children()[0], rename),
                         RenameAtoms(f->children()[1], rename));
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      break;
  }
  std::vector<Formula> children;
  children.reserve(f->children().size());
  for (const Formula& c : f->children()) {
    children.push_back(RenameAtoms(c, rename));
  }
  return f->kind() == FormulaKind::kAnd ? FN::MakeAnd(std::move(children))
                                        : FN::MakeOr(std::move(children));
}

bool StructurallyEqual(const Formula& a, const Formula& b) {
  if (a.get() == b.get()) return true;
  if (a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case FormulaKind::kConst:
      return a->const_value() == b->const_value();
    case FormulaKind::kAtom:
      return a->atom() == b->atom();
    default:
      break;
  }
  if (a->children().size() != b->children().size()) return false;
  for (size_t i = 0; i < a->children().size(); ++i) {
    if (!StructurallyEqual(a->children()[i], b->children()[i])) return false;
  }
  return true;
}

int NodeCount(const Formula& f) {
  int n = 1;
  for (const Formula& c : f->children()) n += NodeCount(c);
  return n;
}

Formula Simplify(const Formula& f) {
  switch (f->kind()) {
    case FormulaKind::kConst:
    case FormulaKind::kAtom:
      return f;
    case FormulaKind::kNot: {
      Formula c = Simplify(f->children()[0]);
      if (c->kind() == FormulaKind::kConst) {
        return FN::MakeConst(!c->const_value());
      }
      if (c->kind() == FormulaKind::kNot) return c->children()[0];
      return FN::MakeNot(c);
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      const bool is_and = f->kind() == FormulaKind::kAnd;
      std::vector<Formula> raw;
      for (const Formula& c : f->children()) {
        Flatten(Simplify(c), f->kind(), &raw);
      }
      std::vector<Formula> parts;
      for (const Formula& p : raw) {
        if (IsConst(p, !is_and)) return FN::MakeConst(!is_and);  // absorber
        if (IsConst(p, is_and)) continue;                        // neutral
        parts.push_back(p);
      }
      Dedup(&parts);
      if (parts.empty()) return FN::MakeConst(is_and);
      if (parts.size() == 1) return parts[0];
      return is_and ? FN::MakeAnd(std::move(parts))
                    : FN::MakeOr(std::move(parts));
    }
    case FormulaKind::kImplies: {
      Formula a = Simplify(f->children()[0]);
      Formula b = Simplify(f->children()[1]);
      if (IsConst(a, false) || IsConst(b, true)) return FN::MakeConst(true);
      if (IsConst(a, true)) return b;
      if (IsConst(b, false)) return Simplify(FN::MakeNot(a));
      return FN::MakeImplies(a, b);
    }
    case FormulaKind::kIff: {
      Formula a = Simplify(f->children()[0]);
      Formula b = Simplify(f->children()[1]);
      if (IsConst(a, true)) return b;
      if (IsConst(b, true)) return a;
      if (IsConst(a, false)) return Simplify(FN::MakeNot(b));
      if (IsConst(b, false)) return Simplify(FN::MakeNot(a));
      return FN::MakeIff(a, b);
    }
  }
  DD_CHECK(false);
  return f;
}

namespace {

Formula Nnf(const Formula& f, bool negated) {
  switch (f->kind()) {
    case FormulaKind::kConst:
      return FN::MakeConst(negated ? !f->const_value() : f->const_value());
    case FormulaKind::kAtom:
      return negated ? FN::MakeNot(f) : f;
    case FormulaKind::kNot:
      return Nnf(f->children()[0], !negated);
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      const bool make_and = (f->kind() == FormulaKind::kAnd) != negated;
      std::vector<Formula> parts;
      parts.reserve(f->children().size());
      for (const Formula& c : f->children()) {
        parts.push_back(Nnf(c, negated));
      }
      return make_and ? FN::MakeAnd(std::move(parts))
                      : FN::MakeOr(std::move(parts));
    }
    case FormulaKind::kImplies: {
      // a -> b == ~a | b ; negated: a & ~b.
      Formula na = Nnf(f->children()[0], !negated);
      Formula b = Nnf(f->children()[1], negated);
      return negated ? FN::MakeAnd(na, b) : FN::MakeOr(na, b);
    }
    case FormulaKind::kIff: {
      // a <-> b == (~a | b) & (~b | a); negated: (a & ~b) | (b & ~a).
      const Formula& a = f->children()[0];
      const Formula& b = f->children()[1];
      if (!negated) {
        return FN::MakeAnd(FN::MakeOr(Nnf(a, true), Nnf(b, false)),
                           FN::MakeOr(Nnf(b, true), Nnf(a, false)));
      }
      return FN::MakeOr(FN::MakeAnd(Nnf(a, false), Nnf(b, true)),
                        FN::MakeAnd(Nnf(b, false), Nnf(a, true)));
    }
  }
  DD_CHECK(false);
  return f;
}

}  // namespace

Formula ToNnf(const Formula& f) { return Nnf(f, false); }

}  // namespace dd
