#include "analysis/slicer.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "util/macros.h"

namespace dd {
namespace analysis {

namespace {

// Union-find with path halving (no ranks; the find loops are short).
int Find(std::vector<int>& parent, int x) {
  while (parent[static_cast<size_t>(x)] != x) {
    parent[static_cast<size_t>(x)] =
        parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
    x = parent[static_cast<size_t>(x)];
  }
  return x;
}

void Unite(std::vector<int>& parent, int a, int b) {
  a = Find(parent, a);
  b = Find(parent, b);
  if (a != b) parent[static_cast<size_t>(b)] = a;
}

void ForEachAtom(const Clause& c, const std::function<void(Var)>& f) {
  for (Var h : c.heads()) f(h);
  for (Var b : c.pos_body()) f(b);
  for (Var nb : c.neg_body()) f(nb);
}

}  // namespace

Var LocalVar(const std::vector<Var>& atoms, Var v) {
  auto it = std::lower_bound(atoms.begin(), atoms.end(), v);
  if (it == atoms.end() || *it != v) return kInvalidVar;
  return static_cast<Var>(it - atoms.begin());
}

Interpretation LiftToParent(const Interpretation& local,
                            const std::vector<Var>& atoms, int parent_width) {
  Interpretation out(parent_width);
  for (Var v : local.TrueAtoms()) out.Insert(atoms[static_cast<size_t>(v)]);
  return out;
}

Slicer::Slicer(Database db) : db_(std::move(db)) {
  const size_t n = static_cast<size_t>(db_.num_vars());
  head_clauses_.resize(n);
  touch_clauses_.resize(n);
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  for (int ci = 0; ci < db_.num_clauses(); ++ci) {
    const Clause& c = db_.clause(ci);
    for (Var h : c.heads()) head_clauses_[static_cast<size_t>(h)].push_back(ci);
    Var first = -1;
    ForEachAtom(c, [&](Var v) {
      touch_clauses_[static_cast<size_t>(v)].push_back(ci);
      if (first == -1) {
        first = v;
      } else {
        Unite(parent, first, v);
      }
    });
  }
  // Duplicate touch entries (an atom in two positions of one clause) are
  // harmless for the closures below but would double-visit; dedup once.
  for (auto& tc : touch_clauses_) {
    tc.erase(std::unique(tc.begin(), tc.end()), tc.end());
  }
  for (auto& hc : head_clauses_) {
    hc.erase(std::unique(hc.begin(), hc.end()), hc.end());
  }
  // Dense module labels in root order.
  module_id_.assign(n, -1);
  for (size_t v = 0; v < n; ++v) {
    const int root = Find(parent, static_cast<int>(v));
    if (module_id_[static_cast<size_t>(root)] == -1) {
      module_id_[static_cast<size_t>(root)] = num_modules_++;
    }
    module_id_[v] = module_id_[static_cast<size_t>(root)];
  }
}

SliceResult Slicer::Cone(const std::vector<Var>& roots) const {
  SliceResult out;
  out.relevant = Interpretation(db_.num_vars());
  std::vector<Var> queue;
  auto add = [&](Var v) {
    if (!out.relevant.Contains(v)) {
      out.relevant.Insert(v);
      queue.push_back(v);
    }
  };
  for (Var r : roots) add(r);
  std::vector<bool> in_slice(static_cast<size_t>(db_.num_clauses()), false);
  while (!queue.empty()) {
    const Var v = queue.back();
    queue.pop_back();
    for (int ci : head_clauses_[static_cast<size_t>(v)]) {
      if (in_slice[static_cast<size_t>(ci)]) continue;
      in_slice[static_cast<size_t>(ci)] = true;
      out.clause_indices.push_back(ci);
      ForEachAtom(db_.clause(ci), add);
    }
  }
  std::sort(out.clause_indices.begin(), out.clause_indices.end());
  out.proper =
      static_cast<int>(out.clause_indices.size()) < db_.num_clauses();
  return out;
}

SliceResult Slicer::ModuleUnion(const std::vector<Var>& roots) const {
  SliceResult out;
  out.relevant = Interpretation(db_.num_vars());
  std::vector<bool> wanted(static_cast<size_t>(num_modules_), false);
  for (Var r : roots) wanted[static_cast<size_t>(module_id_[static_cast<size_t>(r)])] = true;
  for (Var v = 0; v < db_.num_vars(); ++v) {
    if (wanted[static_cast<size_t>(module_id_[static_cast<size_t>(v)])]) {
      out.relevant.Insert(v);
    }
  }
  // All atoms of a clause share one module, so membership of any atom
  // decides the whole clause.
  for (int ci = 0; ci < db_.num_clauses(); ++ci) {
    const Clause& c = db_.clause(ci);
    Var probe = -1;
    if (!c.heads().empty()) {
      probe = c.heads()[0];
    } else if (!c.pos_body().empty()) {
      probe = c.pos_body()[0];
    } else if (!c.neg_body().empty()) {
      probe = c.neg_body()[0];
    }
    if (probe != -1 && out.relevant.Contains(probe)) {
      out.clause_indices.push_back(ci);
    }
  }
  out.proper =
      static_cast<int>(out.clause_indices.size()) < db_.num_clauses();
  return out;
}

SubDatabase Slicer::MakeSubDatabase(const SliceResult& slice) const {
  SubDatabase out;
  out.to_parent = slice.relevant.TrueAtoms();
  Vocabulary voc;
  for (Var v : out.to_parent) voc.Intern(db_.vocabulary().Name(v));
  out.db = Database(std::move(voc));
  auto rename = [&](const std::vector<Var>& atoms) {
    std::vector<Var> local;
    local.reserve(atoms.size());
    for (Var v : atoms) {
      const Var l = LocalVar(out.to_parent, v);
      DD_CHECK(l != kInvalidVar);  // slices are closed under their clauses
      local.push_back(l);
    }
    return local;
  };
  for (int ci : slice.clause_indices) {
    const Clause& c = db_.clause(ci);
    out.db.AddClause(
        Clause(rename(c.heads()), rename(c.pos_body()), rename(c.neg_body())));
  }
  return out;
}

std::vector<Var> Slicer::ClauseAtoms(
    const std::vector<int>& clause_indices) const {
  std::vector<Var> atoms;
  for (int ci : clause_indices) {
    ForEachAtom(db_.clause(ci), [&](Var v) { atoms.push_back(v); });
  }
  std::sort(atoms.begin(), atoms.end());
  atoms.erase(std::unique(atoms.begin(), atoms.end()), atoms.end());
  return atoms;
}

}  // namespace analysis
}  // namespace dd
