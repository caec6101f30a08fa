#include "src/core/snapshot.hpp"

#include <mutex>
#include <stdexcept>
#include <utility>

#include "src/core/dgap_store.hpp"

namespace dgap::core {

void Snapshot::throw_not_open() const {
  if (ctl_ == nullptr)
    throw std::logic_error("Snapshot: empty (default-constructed/moved-from)");
  throw std::logic_error("Snapshot: used after its DgapStore was destroyed");
}

void Snapshot::release() {
  if (ctl_ != nullptr) {
    // Drop the generation pin and give the store a chance to reclaim any
    // retired layout this snapshot was the last reader of. The control
    // block's lock serializes against the store destructor: if the store
    // is already gone, the pin is stale and the destructor has freed (or
    // will free) everything — nothing to do here.
    std::lock_guard<SpinLock> g(ctl_->mu);
    if (ctl_->store != nullptr && gen_ != nullptr) {
      gen_->pins.fetch_sub(1, std::memory_order_acq_rel);
      ctl_->store->reclaim_retired();
    }
  }
  ctl_.reset();
  store_ = nullptr;
  gen_ = nullptr;
}

std::vector<NodeId> Snapshot::neighbors(NodeId v) const {
  return Reader(*this).neighbors(v);
}

std::vector<NodeId> Snapshot::Reader::neighbors(NodeId v) {
  std::vector<NodeId> out;
  const std::uint32_t limit = degree_[v];
  if (limit == 0) return out;
  out.reserve(limit);
  std::vector<Slot> raw;
  raw.reserve(limit);
  read_range(v, 0, limit, [&](Slot s) { raw.push_back(s); });
  // A tombstone cancels the latest prior un-cancelled instance of the same
  // destination (deletion always follows its insertion chronologically).
  std::vector<bool> cancelled(raw.size(), false);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (!edge_tombstone(raw[i])) continue;
    cancelled[i] = true;  // the tombstone itself is not a neighbor
    for (std::size_t j = i; j-- > 0;) {
      if (!cancelled[j] && !edge_tombstone(raw[j]) &&
          edge_dst(raw[j]) == edge_dst(raw[i])) {
        cancelled[j] = true;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < raw.size(); ++i)
    if (!cancelled[i] && !edge_tombstone(raw[i]))
      out.push_back(edge_dst(raw[i]));
  return out;
}

}  // namespace dgap::core
