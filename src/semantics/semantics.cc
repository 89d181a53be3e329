#include "semantics/semantics.h"

#include <utility>

#include "minimal/pqz.h"
#include "semantics/ccwa.h"
#include "semantics/cwa.h"
#include "semantics/ddr.h"
#include "semantics/dsm.h"
#include "semantics/ecwa_circ.h"
#include "semantics/egcwa.h"
#include "semantics/gcwa.h"
#include "semantics/icwa.h"
#include "semantics/pdsm.h"
#include "semantics/perf.h"
#include "semantics/pws.h"
#include "util/macros.h"

namespace dd {

const char* SemanticsKindName(SemanticsKind k) {
  switch (k) {
    case SemanticsKind::kCwa:
      return "CWA";
    case SemanticsKind::kGcwa:
      return "GCWA";
    case SemanticsKind::kEgcwa:
      return "EGCWA";
    case SemanticsKind::kCcwa:
      return "CCWA";
    case SemanticsKind::kEcwa:
      return "ECWA";
    case SemanticsKind::kDdr:
      return "DDR";
    case SemanticsKind::kPws:
      return "PWS";
    case SemanticsKind::kPerf:
      return "PERF";
    case SemanticsKind::kIcwa:
      return "ICWA";
    case SemanticsKind::kDsm:
      return "DSM";
    case SemanticsKind::kPdsm:
      return "PDSM";
  }
  DD_CHECK(false);
  return "?";
}

std::optional<SemanticsKind> SemanticsKindFromName(std::string_view name) {
  std::string lower(name);
  for (char& c : lower) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  static const std::pair<const char*, SemanticsKind> kMap[] = {
      {"cwa", SemanticsKind::kCwa},     {"gcwa", SemanticsKind::kGcwa},
      {"egcwa", SemanticsKind::kEgcwa}, {"ccwa", SemanticsKind::kCcwa},
      {"ecwa", SemanticsKind::kEcwa},   {"circ", SemanticsKind::kEcwa},
      {"ddr", SemanticsKind::kDdr},     {"wgcwa", SemanticsKind::kDdr},
      {"pws", SemanticsKind::kPws},     {"pms", SemanticsKind::kPws},
      {"perf", SemanticsKind::kPerf},   {"icwa", SemanticsKind::kIcwa},
      {"dsm", SemanticsKind::kDsm},     {"pdsm", SemanticsKind::kPdsm},
  };
  for (const auto& [n, kind] : kMap) {
    if (lower == n) return kind;
  }
  return std::nullopt;
}

Result<bool> Semantics::InfersLiteral(Lit l) {
  return InfersFormula(FormulaNode::MakeLit(l));
}

Result<bool> Semantics::InfersCredulously(const Formula& f) {
  // A model violating ~f is exactly a model satisfying f.
  DD_ASSIGN_OR_RETURN(std::optional<Interpretation> witness,
                      FindCounterexample(FormulaNode::MakeNot(f)));
  return witness.has_value();
}

void Semantics::ReportNewWork(MinimalStats* stats,
                              oracle::SessionStats* session) {
  const MinimalStats now = engine_.stats();
  const oracle::SessionStats session_now = engine_.session_stats();
  stats->Add(now);
  stats->Sub(reported_);
  session->Add(session_now);
  session->Sub(reported_session_);
  reported_ = now;
  reported_session_ = session_now;
}

void Semantics::SetBudget(std::shared_ptr<Budget> budget) {
  opts_.budget = budget;
  engine_.SetBudget(std::move(budget));
}

Result<std::shared_ptr<const std::vector<Interpretation>>>
Semantics::SharedModels(int64_t cap) {
  DD_ASSIGN_OR_RETURN(std::vector<Interpretation> models, Models(cap));
  return std::shared_ptr<const std::vector<Interpretation>>(
      std::make_shared<std::vector<Interpretation>>(std::move(models)));
}

Result<std::optional<Interpretation>> Semantics::FindCounterexample(
    const Formula& f) {
  DD_ASSIGN_OR_RETURN(std::vector<Interpretation> models, Models());
  for (const Interpretation& m : models) {
    if (!f->Eval(m)) return std::optional<Interpretation>(m);
  }
  return std::optional<Interpretation>();
}

std::unique_ptr<Semantics> MakeSemantics(SemanticsKind kind,
                                         const Database& db,
                                         const SemanticsOptions& opts,
                                         const Partition* partition) {
  switch (kind) {
    case SemanticsKind::kCwa:
      return std::make_unique<CwaSemantics>(db, opts);
    case SemanticsKind::kGcwa:
      return std::make_unique<GcwaSemantics>(db, opts);
    case SemanticsKind::kEgcwa:
      return std::make_unique<EgcwaSemantics>(db, opts);
    case SemanticsKind::kCcwa:
      return std::make_unique<CcwaSemantics>(
          db, partition ? *partition : Partition::MinimizeAll(db.num_vars()),
          opts);
    case SemanticsKind::kEcwa:
      return std::make_unique<EcwaSemantics>(
          db, partition ? *partition : Partition::MinimizeAll(db.num_vars()),
          opts);
    case SemanticsKind::kDdr:
      return std::make_unique<DdrSemantics>(db, opts);
    case SemanticsKind::kPws:
      return std::make_unique<PwsSemantics>(db, opts);
    case SemanticsKind::kPerf:
      return std::make_unique<PerfSemantics>(db, opts);
    case SemanticsKind::kIcwa:
      return std::make_unique<IcwaSemantics>(db, opts);
    case SemanticsKind::kDsm:
      return std::make_unique<DsmSemantics>(db, opts);
    case SemanticsKind::kPdsm:
      return std::make_unique<PdsmSemantics>(db, opts);
  }
  DD_CHECK(false);
  return nullptr;
}

}  // namespace dd
