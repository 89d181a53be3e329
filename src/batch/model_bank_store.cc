#include "batch/model_bank_store.h"

#include <utility>

#include "util/string_util.h"

namespace dd {
namespace batch {

std::string ModelBankStore::MakeKey(uint64_t module_fingerprint,
                                    SemanticsKind kind, int64_t cap) {
  return StrFormat("%016llx|%s|%lld",
                   static_cast<unsigned long long>(module_fingerprint),
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

}  // namespace batch
}  // namespace dd
