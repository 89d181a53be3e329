#include "ground/join.h"

#include <algorithm>

namespace dd {
namespace ground {

namespace {

/// splitmix64's finalizer: spreads the bits of a key over the table.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashArgs(const int* args, int arity) {
  uint64_t h = static_cast<uint64_t>(arity);
  for (int k = 0; k < arity; ++k) {
    h = Mix(h ^ static_cast<uint32_t>(args[k]));
  }
  return h;
}

/// Splits "p(c1,c2)" into (p, {c1, c2}); see IndexDatabase for the
/// arity-0 cases.
void SplitAtomName(const std::string& name, std::string* pred,
                   std::vector<std::string>* args) {
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

TupleIndex::TupleIndex(std::vector<std::string> universe)
    : universe_(std::move(universe)) {
  constant_ids_.reserve(universe_.size());
  for (size_t i = 0; i < universe_.size(); ++i) {
    constant_ids_.emplace(universe_[i], static_cast<int>(i));
  }
}

int TupleIndex::Constant(const std::string& name) const {
  auto it = constant_ids_.find(name);
  return it == constant_ids_.end() ? -1 : it->second;
}

int TupleIndex::InternPredicate(const std::string& name, int arity) {
  std::vector<int>& ids = pred_ids_[name];
  for (int id : ids) {
    if (rels_[id].arity == arity) return id;
  }
  ids.push_back(static_cast<int>(rels_.size()));
  Relation& r = rels_.emplace_back();
  r.name = name;
  r.arity = arity;
  return ids.back();
}

int TupleIndex::FindPredicate(const std::string& name, int arity) const {
  auto it = pred_ids_.find(name);
  if (it != pred_ids_.end()) {
    for (int id : it->second) {
      if (rels_[id].arity == arity) return id;
    }
  }
  return -1;
}

size_t TupleIndex::MemberSlot(const Relation& r, const int* args) {
  const size_t mask = r.members.size() - 1;
  const size_t arity = static_cast<size_t>(r.arity);
  for (size_t i = HashArgs(args, r.arity) & mask;; i = (i + 1) & mask) {
    const int id = r.members[i];
    if (id < 0 ||
        std::equal(args, args + arity,
                   r.args.data() + static_cast<size_t>(id) * arity)) {
      return i;
    }
  }
}

size_t TupleIndex::ChainSlot(const Relation& r, int64_t key) {
  const size_t mask = r.chain_keys.size() - 1;
  for (size_t i = Mix(static_cast<uint64_t>(key)) & mask;;
       i = (i + 1) & mask) {
    if (r.chain_keys[i] < 0 || r.chain_keys[i] == key) return i;
  }
}

void TupleIndex::GrowMembers(Relation* r) {
  const size_t arity = static_cast<size_t>(r->arity);
  r->members.assign(std::max<size_t>(8, 2 * r->members.size()), -1);
  const size_t mask = r->members.size() - 1;
  for (int id = 0; id < r->count; ++id) {
    size_t i = HashArgs(r->args.data() + static_cast<size_t>(id) * arity,
                        r->arity) &
               mask;
    while (r->members[i] >= 0) i = (i + 1) & mask;
    r->members[i] = id;
  }
}

void TupleIndex::GrowChains(Relation* r) {
  std::vector<int64_t> keys = std::move(r->chain_keys);
  std::vector<int> first = std::move(r->chain_first);
  std::vector<int> last = std::move(r->chain_last);
  const size_t size = std::max<size_t>(8, 2 * keys.size());
  r->chain_keys.assign(size, -1);
  r->chain_first.assign(size, -1);
  r->chain_last.assign(size, -1);
  for (size_t j = 0; j < keys.size(); ++j) {
    if (keys[j] < 0) continue;
    const size_t i = ChainSlot(*r, keys[j]);
    r->chain_keys[i] = keys[j];
    r->chain_first[i] = first[j];
    r->chain_last[i] = last[j];
  }
}

std::pair<int, bool> TupleIndex::Insert(int pred, const int* args) {
  Relation& r = rels_[pred];
  if (2 * (static_cast<size_t>(r.count) + 1) > r.members.size()) {
    GrowMembers(&r);
  }
  const size_t slot = MemberSlot(r, args);
  if (r.members[slot] >= 0) return {r.members[slot], false};
  const int id = r.count++;
  ++size_;
  r.members[slot] = id;
  r.args.insert(r.args.end(), args, args + r.arity);
  r.next.insert(r.next.end(), static_cast<size_t>(r.arity), -1);
  const int64_t width = static_cast<int64_t>(universe_.size());
  for (int k = 0; k < r.arity; ++k) {
    if (2 * (static_cast<size_t>(r.num_chains) + 1) > r.chain_keys.size()) {
      GrowChains(&r);
    }
    const int64_t key = k * width + args[k];
    const size_t c = ChainSlot(r, key);
    if (r.chain_keys[c] < 0) {
      r.chain_keys[c] = key;
      r.chain_first[c] = id;
      ++r.num_chains;
    } else {
      r.next[static_cast<size_t>(r.chain_last[c]) *
                 static_cast<size_t>(r.arity) +
             static_cast<size_t>(k)] = id;
    }
    r.chain_last[c] = id;
  }
  return {id, true};
}

int TupleIndex::First(int pred, int arg, int value) const {
  const Relation& r = rels_[pred];
  if (r.chain_keys.empty()) return -1;
  const int64_t key =
      arg * static_cast<int64_t>(universe_.size()) + value;
  const size_t c = ChainSlot(r, key);
  return r.chain_keys[c] < 0 ? -1 : r.chain_first[c];
}

std::string TupleIndex::Name(int pred, const int* args) const {
  const Relation& r = rels_[pred];
  if (r.arity == 0) return r.name;
  size_t len = r.name.size() + static_cast<size_t>(r.arity) + 1;
  for (int k = 0; k < r.arity; ++k) len += universe_[args[k]].size();
  std::string name;
  name.reserve(len);
  name += r.name;
  for (int k = 0; k < r.arity; ++k) {
    name += k == 0 ? '(' : ',';
    name += universe_[args[k]];
  }
  name += ')';
  return name;
}

TupleIndex IndexDatabase(const Database& db) {
  const Vocabulary& voc = db.vocabulary();
  std::vector<char> used(static_cast<size_t>(voc.size()), 0);
  for (const Clause& c : db.clauses()) {
    for (Var v : c.heads()) used[v] = 1;
    for (Var v : c.pos_body()) used[v] = 1;
    for (Var v : c.neg_body()) used[v] = 1;
  }
  // Split every mentioned name first: constant ids follow name order, so
  // the universe must be complete before the first tuple is interned.
  std::vector<std::pair<std::string, std::vector<std::string>>> atoms;
  std::vector<std::string> constants;
  for (Var v = 0; v < voc.size(); ++v) {
    if (!used[v]) continue;
    auto& [pred, args] = atoms.emplace_back();
    SplitAtomName(voc.Name(v), &pred, &args);
    constants.insert(constants.end(), args.begin(), args.end());
  }
  std::sort(constants.begin(), constants.end());
  constants.erase(std::unique(constants.begin(), constants.end()),
                  constants.end());
  TupleIndex out(std::move(constants));
  std::vector<int> ids;
  for (const auto& [pred, args] : atoms) {
    ids.clear();
    for (const std::string& c : args) ids.push_back(out.Constant(c));
    out.Insert(out.InternPredicate(pred, static_cast<int>(args.size())),
               ids.data());
  }
  return out;
}

AtomPattern::AtomPattern(const PredAtom& a,
                         const std::vector<std::string>& vars,
                         const TupleIndex& idx)
    : pred(idx.FindPredicate(a.predicate, a.arity())) {
  for (const Term& t : a.args) {
    int slot = -1;
    int constant = -1;
    if (t.is_variable) {
      slot = static_cast<int>(std::find(vars.begin(), vars.end(), t.name) -
                              vars.begin());
    } else {
      constant = idx.Constant(t.name);
      if (constant < 0) pred = -1;
    }
    slots.push_back(slot);
    constants.push_back(constant);
  }
}

void AtomPattern::Instantiate(const Binding& b, std::vector<int>* out) const {
  out->clear();
  for (size_t k = 0; k < slots.size(); ++k) {
    out->push_back(slots[k] < 0 ? constants[k] : b[slots[k]]);
  }
}

std::vector<AtomPattern> Resolve(const std::vector<PredAtom>& atoms,
                                 const std::vector<std::string>& vars,
                                 const TupleIndex& idx) {
  std::vector<AtomPattern> out;
  out.reserve(atoms.size());
  for (const PredAtom& a : atoms) out.emplace_back(a, vars, idx);
  return out;
}

Join::Join(const std::vector<AtomPattern>& atoms, size_t num_vars, int lead)
    : num_vars_(num_vars) {
  std::vector<int> order;
  if (lead >= 0) order.push_back(lead);
  for (int a = 0; a < static_cast<int>(atoms.size()); ++a) {
    if (a != lead) order.push_back(a);
  }
  std::vector<char> bound(num_vars, 0);
  for (int a : order) {
    const AtomPattern& p = atoms[a];
    Step s{a, p.pred, -1, {}, {}};
    const std::vector<char> bound_before = bound;
    for (size_t k = 0; k < p.slots.size(); ++k) {
      const int slot = p.slots[k];
      if (slot < 0) {
        s.ops.push_back(Op::kConstant);
        s.operands.push_back(p.constants[k]);
      } else {
        s.ops.push_back(bound[slot] ? Op::kCheck : Op::kBind);
        s.operands.push_back(slot);
        bound[slot] = 1;
      }
      if (s.probe < 0 && (slot < 0 || bound_before[slot])) {
        s.probe = static_cast<int>(k);
      }
    }
    steps_.push_back(std::move(s));
  }
  for (size_t v = 0; v < num_vars; ++v) {
    if (!bound[v]) unbound_.push_back(static_cast<int>(v));
  }
}

bool Join::Run(const TupleIndex& idx,
               const std::function<bool(const Binding&)>& emit,
               const std::vector<Range>* ranges) const {
  Binding b(num_vars_, -1);
  return Bind(0, idx, ranges, &b, emit);
}

bool Join::Bind(size_t i, const TupleIndex& idx,
                const std::vector<Range>* ranges, Binding* b,
                const std::function<bool(const Binding&)>& emit) const {
  if (i == steps_.size()) {
    return Expand(unbound_.size(), static_cast<int>(idx.universe().size()),
                  b, emit);
  }
  const Step& s = steps_[i];
  if (s.pred < 0) return true;
  int lo = 0;
  int hi = idx.Count(s.pred);
  if (ranges != nullptr) {
    lo = std::max(lo, (*ranges)[s.atom].lo);
    hi = std::min(hi, (*ranges)[s.atom].hi);
  }
  // Reads the tuple before recursing: `emit` may insert, which moves it.
  auto visit = [&](int t) {
    const int* tuple = idx.Args(s.pred, t);
    for (size_t k = 0; k < s.ops.size(); ++k) {
      const int x = s.operands[k];
      switch (s.ops[k]) {
        case Op::kConstant:
          if (tuple[k] != x) return true;
          break;
        case Op::kBind:
          (*b)[x] = tuple[k];
          break;
        case Op::kCheck:
          if ((*b)[x] != tuple[k]) return true;
          break;
      }
    }
    return Bind(i + 1, idx, ranges, b, emit);
  };
  if (s.probe >= 0 && lo == 0) {
    const int value = s.ops[s.probe] == Op::kConstant
                          ? s.operands[s.probe]
                          : (*b)[s.operands[s.probe]];
    for (int t = idx.First(s.pred, s.probe, value); t >= 0 && t < hi;
         t = idx.Next(s.pred, s.probe, t)) {
      if (!visit(t)) return false;
    }
  } else {
    for (int t = lo; t < hi; ++t) {
      if (!visit(t)) return false;
    }
  }
  return true;
}

bool Join::Expand(size_t n, int universe, Binding* b,
                  const std::function<bool(const Binding&)>& emit) const {
  if (n == 0) return emit(*b);
  const int slot = unbound_[n - 1];
  for (int c = 0; c < universe; ++c) {
    (*b)[slot] = c;
    if (!Expand(n - 1, universe, b, emit)) return false;
  }
  return true;
}

}  // namespace ground
}  // namespace dd
