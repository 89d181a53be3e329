#include "ground/join.h"

namespace dd {
namespace ground {

namespace {

/// Splits "p(c1,c2)" into (p, {c1, c2}); see IndexDatabase for the
/// arity-0 cases.
void SplitAtomName(const std::string& name, std::string* pred, Tuple* args) {
  const size_t open = name.find('(');
  if (open != std::string::npos && name.back() == ')') {
    const size_t close = name.size() - 1;
    for (size_t start = open + 1; start <= close;) {
      size_t end = name.find(',', start);
      if (end == std::string::npos || end > close) end = close;
      if (end == start) break;  // empty argument
      args->push_back(name.substr(start, end - start));
      if (end == close) {
        *pred = name.substr(0, open);
        return;
      }
      start = end + 1;
    }
    args->clear();
  }
  *pred = name;
}

}  // namespace

bool TupleIndex::Insert(const std::string& pred, Tuple args) {
  Entry& entry = by_pred_[pred];
  if (!entry.seen.insert(args).second) return false;
  entry.tuples.push_back(std::move(args));
  ++size_;
  return true;
}

const std::deque<Tuple>& TupleIndex::Tuples(const std::string& pred) const {
  static const std::deque<Tuple> kNone;
  auto it = by_pred_.find(pred);
  return it == by_pred_.end() ? kNone : it->second.tuples;
}

MentionIndex IndexDatabase(const Database& db) {
  const Vocabulary& voc = db.vocabulary();
  std::vector<char> used(static_cast<size_t>(voc.size()), 0);
  for (const Clause& c : db.clauses()) {
    for (Var v : c.heads()) used[v] = 1;
    for (Var v : c.pos_body()) used[v] = 1;
    for (Var v : c.neg_body()) used[v] = 1;
  }
  MentionIndex out;
  std::set<std::string> constants;
  for (Var v = 0; v < voc.size(); ++v) {
    if (!used[v]) continue;
    std::string pred;
    Tuple args;
    SplitAtomName(voc.Name(v), &pred, &args);
    constants.insert(args.begin(), args.end());
    out.tuples.Insert(pred, std::move(args));
  }
  out.universe.assign(constants.begin(), constants.end());
  return out;
}

Join::Join(const std::vector<PredAtom>& atoms, std::vector<std::string> vars)
    : vars_(std::move(vars)) {
  for (const PredAtom& a : atoms) {
    Pattern p{a.predicate, {}, {}};
    for (const Term& t : a.args) {
      p.slots.push_back(t.is_variable ? Slot(t.name) : -1);
      p.constants.push_back(t.is_variable ? std::string() : t.name);
    }
    patterns_.push_back(std::move(p));
  }
}

int Join::Slot(const std::string& var) const {
  for (size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i] == var) return static_cast<int>(i);
  }
  return -1;
}

bool Join::Run(const TupleIndex& idx, const std::vector<std::string>& universe,
               const std::function<bool(const Binding&)>& emit) const {
  Binding b(vars_.size(), nullptr);
  return Bind(0, idx, universe, &b, emit);
}

bool Join::Bind(size_t i, const TupleIndex& idx,
                const std::vector<std::string>& universe, Binding* b,
                const std::function<bool(const Binding&)>& emit) const {
  if (i == patterns_.size()) return Expand(vars_.size(), universe, b, emit);
  const Pattern& p = patterns_[i];
  const std::deque<Tuple>& tuples = idx.Tuples(p.pred);
  std::vector<int> bound_here;
  // By index: `emit` may append to this very deque (the closure does).
  for (size_t t = 0; t < tuples.size(); ++t) {
    const Tuple& tuple = tuples[t];
    if (tuple.size() != p.slots.size()) continue;
    bool ok = true;
    for (size_t k = 0; ok && k < tuple.size(); ++k) {
      const int s = p.slots[k];
      if (s < 0) {
        ok = p.constants[k] == tuple[k];
      } else if ((*b)[s] == nullptr) {
        (*b)[s] = &tuple[k];
        bound_here.push_back(s);
      } else {
        ok = *(*b)[s] == tuple[k];
      }
    }
    const bool go_on = !ok || Bind(i + 1, idx, universe, b, emit);
    for (int s : bound_here) (*b)[s] = nullptr;
    bound_here.clear();
    if (!go_on) return false;
  }
  return true;
}

bool Join::Expand(size_t n, const std::vector<std::string>& universe,
                  Binding* b,
                  const std::function<bool(const Binding&)>& emit) const {
  if (n == 0) return emit(*b);
  if ((*b)[n - 1] != nullptr) return Expand(n - 1, universe, b, emit);
  bool go_on = true;
  for (size_t c = 0; go_on && c < universe.size(); ++c) {
    (*b)[n - 1] = &universe[c];
    go_on = Expand(n - 1, universe, b, emit);
  }
  (*b)[n - 1] = nullptr;
  return go_on;
}

Tuple Join::Args(const PredAtom& a, const Binding& b) const {
  Tuple out;
  out.reserve(a.args.size());
  for (const Term& t : a.args) {
    out.push_back(t.is_variable ? *b[Slot(t.name)] : t.name);
  }
  return out;
}

std::string Join::Name(const PredAtom& a, const Binding& b) const {
  if (a.args.empty()) return a.predicate;
  std::string name = a.predicate + "(";
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (i) name += ",";
    const Term& t = a.args[i];
    name += t.is_variable ? *b[Slot(t.name)] : t.name;
  }
  name += ")";
  return name;
}

}  // namespace ground
}  // namespace dd
