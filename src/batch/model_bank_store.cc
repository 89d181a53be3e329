#include "batch/model_bank_store.h"

#include <limits>
#include <utility>

#include "analysis/slicer.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace dd {
namespace batch {

std::string ModelBankStore::MakeKey(uint64_t module_fingerprint,
                                    uint64_t atom_order, SemanticsKind kind,
                                    int64_t cap) {
  return StrFormat("%016llx|%016llx|%s|%lld",
                   static_cast<unsigned long long>(module_fingerprint),
                   static_cast<unsigned long long>(atom_order),
                   SemanticsKindName(kind), static_cast<long long>(cap));
}

std::shared_ptr<const ModelBank> ModelBankStore::Lookup(const std::string& key,
                                                        int min_num_vars) {
  // A bank built before the vocabulary grew cannot evaluate a formula
  // mentioning a newer atom. The entry stays — it remains valid for
  // queries over the atoms it does cover.
  const std::shared_ptr<const ModelBank>* hit =
      Find(key, [&](const std::shared_ptr<const ModelBank>& bank) {
        return bank->num_vars >= min_num_vars;
      });
  return hit != nullptr ? *hit : nullptr;
}

ModelBankStore::Inserted ModelBankStore::Insert(
    const std::string& key, std::shared_ptr<const ModelBank> bank) {
  // A truncated bank may be missing models; trusting it could flip
  // answers, so it is never stored under any circumstances.
  const bool complete =
      bank != nullptr && bank->models != nullptr && bank->complete;
  return Put(key, std::move(bank), complete);
}

std::shared_ptr<const ModelBank> RenumberBank(const ModelBank& bank,
                                              const std::vector<Var>& from,
                                              const std::vector<Var>& to) {
  auto models = std::make_shared<std::vector<Interpretation>>();
  models->reserve(bank.models->size());
  for (const Interpretation& m : *bank.models) {
    Interpretation renumbered(static_cast<int>(to.size()));
    for (Var v : m.TrueAtoms()) {
      const Var local = analysis::LocalVar(to, from[static_cast<size_t>(v)]);
      DD_CHECK(local != kInvalidVar);
      renumbered.Insert(local);
    }
    models->push_back(std::move(renumbered));
  }
  auto out = std::make_shared<ModelBank>();
  out->num_vars = models->empty() ? std::numeric_limits<int>::max()
                                  : static_cast<int>(to.size());
  out->models = std::move(models);
  out->complete = bank.complete;
  return out;
}

}  // namespace batch
}  // namespace dd
