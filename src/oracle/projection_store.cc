#include "oracle/projection_store.h"

#include <utility>

namespace dd {
namespace oracle {

ProjectionStream* ProjectionStore::FindStream(const Partition& pqz) {
  for (auto& s : streams_) {
    if (s->pqz.p == pqz.p && s->pqz.q == pqz.q && s->pqz.z == pqz.z) {
      return s.get();
    }
  }
  return nullptr;
}

ProjectionStream* ProjectionStore::GetStream(const Partition& pqz) {
  for (auto& s : streams_) {
    if (s->pqz.p == pqz.p && s->pqz.q == pqz.q && s->pqz.z == pqz.z) {
      s->last_used = ++tick_;
      return s.get();
    }
  }
  if (cap_ > 0 && static_cast<int64_t>(streams_.size()) >= cap_) {
    // Evict the least-recently-used stream. Retracting its kept context
    // leaves its region blocks as satisfied garbage in the session; a later
    // request for its partition re-enumerates the identical stream from
    // scratch.
    size_t lru = 0;
    for (size_t i = 1; i < streams_.size(); ++i) {
      if (streams_[i]->last_used < streams_[lru]->last_used) lru = i;
    }
    if (streams_[lru]->ctx) streams_[lru]->ctx->Retract();
    if (lru != streams_.size() - 1) {
      streams_[lru] = std::move(streams_.back());
    }
    streams_.pop_back();
    ++evictions_;
  }
  auto stream = std::make_unique<ProjectionStream>();
  stream->pqz = pqz;
  stream->last_used = ++tick_;
  streams_.push_back(std::move(stream));
  return streams_.back().get();
}

}  // namespace oracle
}  // namespace dd
