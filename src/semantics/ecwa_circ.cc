#include "semantics/ecwa_circ.h"

#include "util/macros.h"
#include "util/string_util.h"

namespace dd {

EcwaSemantics::EcwaSemantics(const Database& db, Partition pqz,
                             const SemanticsOptions& opts)
    : Semantics(db, opts), pqz_(std::move(pqz)) {
  DD_CHECK(pqz_.Validate().ok());
  DD_CHECK(pqz_.num_vars() == db.num_vars());
}

Result<bool> EcwaSemantics::InfersFormula(const Formula& f) {
  bool entails = engine_.MinimalEntails(f, pqz_);
  if (engine_.interrupted()) return engine_.interrupt_status();
  return entails;
}

Result<std::optional<Interpretation>> EcwaSemantics::FindCounterexample(
    const Formula& f) {
  Interpretation witness;
  bool entails = engine_.MinimalEntails(f, pqz_, &witness);
  if (engine_.interrupted()) return engine_.interrupt_status();
  if (entails) {
    return std::optional<Interpretation>();
  }
  return std::optional<Interpretation>(witness);
}

Result<bool> EcwaSemantics::HasModel() {
  if (db_.IsPositive()) return true;
  bool has = engine_.HasModel();
  if (engine_.interrupted()) return engine_.interrupt_status();
  return has;
}

Result<std::vector<Interpretation>> EcwaSemantics::Models(int64_t cap) {
  if (cap < 0) cap = opts_.max_models;
  std::vector<Interpretation> out;
  bool overflow = false;
  engine_.EnumerateAllMinimalModels(pqz_, cap + 1,
                                    [&](const Interpretation& m) {
                                      if (static_cast<int64_t>(out.size()) >=
                                          cap) {
                                        overflow = true;
                                        return false;
                                      }
                                      out.push_back(m);
                                      return true;
                                    });
  if (engine_.interrupted()) {
    partial_models_ = std::move(out);
    return engine_.interrupt_status();
  }
  if (overflow) {
    partial_models_ = std::move(out);
    return Status::ResourceExhausted(StrFormat(
        "more than %lld ECWA models", static_cast<long long>(cap)));
  }
  return out;
}

bool EcwaSemantics::IsCircumscriptionModel(const Interpretation& m) {
  return engine_.IsMinimal(m, pqz_);
}

std::vector<bool> EcwaSemantics::AreCircumscriptionModels(
    const std::vector<Interpretation>& candidates) {
  return engine_.AreMinimal(candidates, pqz_, opts_.num_threads);
}

}  // namespace dd
