#include "walkthrough/resident_set.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <random>
#include <unordered_map>
#include <utility>

// Every global allocation of this binary is counted, so a test can show
// that a loop allocates nothing.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Each operator is out of line: inlined into a caller, `malloc` or `free`
// would meet the other operator's call, and an optimized g++ build warns
// -Wmismatched-new-delete.
__attribute__((noinline)) void* operator new(size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    return p;
  }
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace hdov {
namespace {

using Reference = std::unordered_map<uint64_t, ResidentEntry>;

bool SameEntry(const ResidentEntry& x, const ResidentEntry& y) {
  return x.lod_level == y.lod_level && x.byte_size == y.byte_size &&
         x.triangle_count == y.triangle_count;
}

// Membership and entry of every owner (past the slots too), the byte
// total, and the live list compared as a set.
void ExpectMatches(const ResidentSet& set, const Reference& ref,
                   uint64_t owners) {
  for (uint64_t owner = 0; owner < owners; ++owner) {
    const ResidentEntry* got = set.Find(owner);
    const auto want = ref.find(owner);
    ASSERT_EQ(got != nullptr, want != ref.end()) << owner;
    if (got != nullptr) {
      EXPECT_TRUE(SameEntry(*got, want->second)) << owner;
    }
  }
  uint64_t bytes = 0;
  for (const auto& [owner, entry] : ref) {
    bytes += entry.byte_size;
  }
  EXPECT_EQ(set.bytes(), bytes);
  ASSERT_EQ(set.size(), ref.size());
  std::map<uint64_t, ResidentEntry> live;
  for (const ResidentSet::Item& item : set) {
    ASSERT_TRUE(live.emplace(item.owner, item.entry).second)
        << "owner listed twice: " << item.owner;
  }
  for (const auto& [owner, entry] : ref) {
    const auto it = live.find(owner);
    ASSERT_NE(it, live.end()) << owner;
    EXPECT_TRUE(SameEntry(it->second, entry)) << owner;
  }
}

TEST(ResidentSetTest, MatchesAHashMapOverRandomSequences) {
  constexpr uint64_t kSlots = 48;
  constexpr uint64_t kOwners = kSlots + 6;  // Some owners are out of range.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    ResidentSet sets[2] = {ResidentSet(kSlots), ResidentSet(kSlots)};
    Reference refs[2];
    const auto pick = [&](uint64_t n) {
      return std::uniform_int_distribution<uint64_t>(0, n - 1)(rng);
    };
    for (int step = 0; step < 3000; ++step) {
      const int which = static_cast<int>(pick(2));
      ResidentSet& set = sets[which];
      Reference& ref = refs[which];
      const uint64_t owner = pick(kOwners);
      const ResidentEntry entry{static_cast<uint32_t>(pick(5)),
                                1 + pick(1000),
                                static_cast<uint32_t>(pick(500))};
      const uint64_t op = pick(100);
      if (op < 35) {
        const Status s = set.Put(owner, entry);
        ASSERT_EQ(s.ok(), owner < kSlots) << s.ToString();
        if (s.ok()) {
          ref[owner] = entry;
        }
      } else if (op < 70) {
        const Status s = set.Emplace(owner, entry);
        ASSERT_EQ(s.ok(), owner < kSlots) << s.ToString();
        if (s.ok()) {
          ref.emplace(owner, entry);
        }
      } else if (op < 82) {
        const ResidentEntry* got = set.Find(owner);
        const auto want = ref.find(owner);
        ASSERT_EQ(got != nullptr, want != ref.end());
      } else if (op < 92) {
        const uint32_t level = static_cast<uint32_t>(pick(5));
        const uint64_t stride = 2 + pick(3);
        const auto pred = [&](uint64_t o, const ResidentEntry& e) {
          return e.lod_level > level || o % stride == 0;
        };
        set.EraseIf(pred);
        std::erase_if(ref, [&](const auto& kv) {
          return pred(kv.first, kv.second);
        });
      } else if (op < 96) {
        set.Clear();
        ref.clear();
      } else {
        sets[0].swap(sets[1]);
        std::swap(refs[0], refs[1]);
      }
      ExpectMatches(sets[0], refs[0], kOwners);
      ExpectMatches(sets[1], refs[1], kOwners);
      if (HasFatalFailure()) {
        FAIL() << "step " << step;
      }
    }
  }
}

TEST(ResidentSetTest, OwnerPastTheSlotsIsAnError) {
  ResidentSet set(10);
  ASSERT_TRUE(set.Put(9, ResidentEntry{0, 5, 1}).ok());
  for (const uint64_t owner : {uint64_t{10}, uint64_t{1} << 32, UINT64_MAX}) {
    const Status put = set.Put(owner, ResidentEntry{0, 7, 1});
    EXPECT_EQ(put.code(), StatusCode::kOutOfRange) << owner;
    EXPECT_EQ(set.Emplace(owner, ResidentEntry{0, 7, 1}).code(),
              StatusCode::kOutOfRange)
        << owner;
    EXPECT_EQ(set.Find(owner), nullptr) << owner;
  }
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.bytes(), 5u);
  // A default set has no slots at all.
  ResidentSet empty;
  EXPECT_FALSE(empty.Put(0, ResidentEntry{}).ok());
  EXPECT_EQ(empty.Find(0), nullptr);
}

TEST(ResidentSetTest, SteadyFrameLoopAllocatesNothing) {
  // The VisualSystem frame: read the current set, write the next one
  // (last entry wins), pin a prefetched few (first entry wins), swap,
  // and an R-tree-style distance eviction. The working set slides over
  // the owners and keeps its size, so once both lists have grown, no
  // frame allocates.
  constexpr uint64_t kSlots = 4096;
  constexpr uint64_t kWorking = 80;
  ResidentSet current(kSlots);
  ResidentSet next(kSlots);
  ResidentSet pinned(kSlots);
  uint64_t reused = 0;
  uint64_t bytes = 0;
  const auto frame = [&](uint64_t f) {
    next.Clear();
    for (uint64_t i = 0; i < kWorking; ++i) {
      const uint64_t owner = (f + i * 37) % kSlots;
      const uint32_t level = static_cast<uint32_t>((f + i) % 3);
      const ResidentEntry* held = current.Find(owner);
      ResidentEntry entry{level, 100 + owner, 10};
      if (held != nullptr && held->lod_level <= level) {
        entry = *held;
        ++reused;
      }
      if (!next.Put(owner, entry).ok()) {
        return false;
      }
    }
    current.swap(next);
    if (f % 5 == 0) {
      pinned.Clear();
      for (uint64_t i = 0; i < 4; ++i) {
        if (!pinned.Put((f * 7 + i) % kSlots, ResidentEntry{0, 1, 1}).ok()) {
          return false;
        }
      }
    }
    for (const ResidentSet::Item& item : pinned) {
      if (!current.Emplace(item.owner, item.entry).ok()) {
        return false;
      }
    }
    current.EraseIf([&](uint64_t owner, const ResidentEntry&) {
      return owner % 11 == f % 11;
    });
    bytes += current.bytes();
    return true;
  };
  for (uint64_t f = 0; f < 3; ++f) {
    ASSERT_TRUE(frame(f));
  }
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  bool ok = true;
  for (uint64_t f = 3; f < 2000 && ok; ++f) {
    ok = frame(f);
  }
  const uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(ok);
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(reused, 0u);
  EXPECT_GT(bytes, 0u);
}

}  // namespace
}  // namespace hdov
