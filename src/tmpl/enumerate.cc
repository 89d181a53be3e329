#include "tmpl/enumerate.h"

#include <limits>
#include <set>

namespace dd {
namespace tmpl {

int64_t SaturatingPow(int64_t base, size_t exp) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  int64_t r = 1;
  for (size_t i = 0; i < exp; ++i) {
    if (base != 0 && r > kMax / base) return kMax;
    r *= base;
  }
  return r;
}

Result<std::vector<std::vector<std::string>>> EnumerateBindings(
    const Template& t, const ground::TupleIndex& idx,
    const EnumerateOptions& opts) {
  if (t.vars.empty()) {
    // One ground candidate; answering it is the batch layer's job.
    return std::vector<std::vector<std::string>>{{}};
  }
  // The join runs over the tuples the CLAUSES mention rather than the
  // derivable closure: an intended model can satisfy body atoms the
  // fixpoint never derives (e.g. from a disjunctive head), so
  // clause-mention is the sound upper bound here.
  const ground::Join join(
      opts.prune ? ground::Resolve(t.pos, t.vars, idx)
                 : std::vector<ground::AtomPattern>{},
      t.vars.size());
  // Constant ids follow name order, so sorting ids sorts the names.
  std::set<ground::Binding> out;
  const bool within = join.Run(idx, [&](const ground::Binding& b) {
    out.insert(b);
    return static_cast<int64_t>(out.size()) <= opts.max_candidates;
  });
  if (!within) {
    return Status::ResourceExhausted(
        "template enumeration exceeded max_candidates");
  }
  std::vector<std::vector<std::string>> bindings;
  bindings.reserve(out.size());
  for (const ground::Binding& b : out) {
    std::vector<std::string>& names = bindings.emplace_back();
    names.reserve(b.size());
    for (int c : b) names.push_back(idx.universe()[c]);
  }
  return bindings;
}

}  // namespace tmpl
}  // namespace dd
