// ResidentSet: the model representations a walkthrough system holds in
// memory, keyed by a dense owner slot (an object id, a node index offset
// past the objects, or a model id). It is the bookkeeping behind delta
// search: a frame looks each wanted representation up, and what the frame
// keeps is summed into FrameResult::resident_bytes.
//
// The slot count is fixed at construction; an owner past it is an error,
// never a write out of bounds. Each slot carries a generation stamp, so
// Clear() is O(1), and the live owners sit in a packed list (swap-remove
// on erase), so iteration and EraseIf cost O(live). The byte total is kept
// on every put, overwrite and erase. A system that rebuilds its set each
// frame reads the current set, writes a second one and swaps the two;
// once both lists have grown to the working set, no frame allocates.
// Not thread-safe: a set belongs to one session's frame thread.

#ifndef HDOV_WALKTHROUGH_RESIDENT_SET_H_
#define HDOV_WALKTHROUGH_RESIDENT_SET_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"

namespace hdov {

struct ResidentEntry {
  uint32_t lod_level = 0;  // Level currently in memory (lower = finer).
  uint64_t byte_size = 0;
  uint32_t triangle_count = 0;
};

class ResidentSet {
 public:
  struct Item {
    uint64_t owner;
    ResidentEntry entry;
  };

  ResidentSet() = default;
  // Slots past 2^32 - 1 are not kept (their owners read as out of range).
  explicit ResidentSet(size_t slots)
      : slots_(std::min<size_t>(slots, UINT32_MAX)) {}

  size_t size() const { return live_.size(); }
  uint64_t bytes() const { return bytes_; }

  // The live owners and their entries, in no particular order.
  std::vector<Item>::const_iterator begin() const { return live_.begin(); }
  std::vector<Item>::const_iterator end() const { return live_.end(); }

  // The entry of `owner`, or null when it is not resident (an owner past
  // the slot count is never resident).
  const ResidentEntry* Find(uint64_t owner) const {
    if (owner >= slots_.size() || slots_[owner].gen != gen_) {
      return nullptr;
    }
    return &live_[slots_[owner].pos].entry;
  }

  // Makes `entry` the owner's entry, replacing one already there.
  Status Put(uint64_t owner, const ResidentEntry& entry) {
    return Insert(owner, entry, /*overwrite=*/true);
  }
  // Adds `entry` unless the owner is already resident (the first wins).
  Status Emplace(uint64_t owner, const ResidentEntry& entry) {
    return Insert(owner, entry, /*overwrite=*/false);
  }

  // Erases every live owner for which pred(owner, entry) holds.
  template <typename Pred>
  void EraseIf(Pred pred) {
    for (size_t i = 0; i < live_.size();) {
      if (!pred(live_[i].owner, live_[i].entry)) {
        ++i;
        continue;
      }
      bytes_ -= live_[i].entry.byte_size;
      slots_[live_[i].owner].gen = 0;
      live_[i] = live_.back();
      live_.pop_back();
      if (i < live_.size()) {
        slots_[live_[i].owner].pos = static_cast<uint32_t>(i);
      }
    }
  }

  void Clear() {
    live_.clear();
    bytes_ = 0;
    if (++gen_ == 0) {  // Wrapped: no stale stamp may match again.
      for (Slot& slot : slots_) {
        slot.gen = 0;
      }
      gen_ = 1;
    }
  }

  void swap(ResidentSet& other) noexcept {
    slots_.swap(other.slots_);
    live_.swap(other.live_);
    std::swap(gen_, other.gen_);
    std::swap(bytes_, other.bytes_);
  }

 private:
  // Live iff gen == gen_; gen 0 is never current.
  struct Slot {
    uint32_t gen = 0;
    uint32_t pos = 0;  // Index into live_.
  };

  Status Insert(uint64_t owner, const ResidentEntry& entry, bool overwrite) {
    if (owner >= slots_.size()) {
      return Status::OutOfRange("resident set: owner past the slot count");
    }
    Slot& slot = slots_[owner];
    if (slot.gen == gen_) {
      if (overwrite) {
        ResidentEntry& held = live_[slot.pos].entry;
        bytes_ += entry.byte_size - held.byte_size;
        held = entry;
      }
      return Status::OK();
    }
    slot.gen = gen_;
    slot.pos = static_cast<uint32_t>(live_.size());
    live_.push_back(Item{owner, entry});
    bytes_ += entry.byte_size;
    return Status::OK();
  }

  std::vector<Slot> slots_;
  std::vector<Item> live_;
  uint32_t gen_ = 1;
  uint64_t bytes_ = 0;
};

}  // namespace hdov

#endif  // HDOV_WALKTHROUGH_RESIDENT_SET_H_
