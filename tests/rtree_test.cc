#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <vector>

#include "common/rng.h"
#include "rtree/linear_split.h"
#include "rtree/quadratic_split.h"
#include "rtree/rtree.h"
#include "storage/page_device.h"

namespace hdov {
namespace {

Aabb RandomBox(Rng* rng, double world, double max_extent) {
  Vec3 lo(rng->Uniform(0, world), rng->Uniform(0, world),
          rng->Uniform(0, world));
  Vec3 extent(rng->Uniform(0.1, max_extent), rng->Uniform(0.1, max_extent),
              rng->Uniform(0.1, max_extent));
  return Aabb(lo, lo + extent);
}

std::vector<uint64_t> BruteForceQuery(const std::vector<Aabb>& boxes,
                                      const Aabb& window) {
  std::vector<uint64_t> hits;
  for (size_t i = 0; i < boxes.size(); ++i) {
    if (boxes[i].Intersects(window)) {
      hits.push_back(i);
    }
  }
  return hits;
}

TEST(LinearSplitTest, RespectsMinFill) {
  Rng rng(1);
  std::vector<Aabb> boxes;
  for (int i = 0; i < 33; ++i) {
    boxes.push_back(RandomBox(&rng, 100, 10));
  }
  SplitResult split = LinearSplit(boxes, 13);
  EXPECT_GE(split.left.size(), 13u);
  EXPECT_GE(split.right.size(), 13u);
  EXPECT_EQ(split.left.size() + split.right.size(), boxes.size());
  // Every index appears exactly once.
  std::set<size_t> seen(split.left.begin(), split.left.end());
  seen.insert(split.right.begin(), split.right.end());
  EXPECT_EQ(seen.size(), boxes.size());
}

TEST(LinearSplitTest, SeparatesTwoClusters) {
  std::vector<Aabb> boxes;
  for (int i = 0; i < 8; ++i) {
    double base = i * 0.5;
    boxes.push_back(Aabb(Vec3(base, 0, 0), Vec3(base + 1, 1, 1)));
  }
  for (int i = 0; i < 8; ++i) {
    double base = 100 + i * 0.5;
    boxes.push_back(Aabb(Vec3(base, 0, 0), Vec3(base + 1, 1, 1)));
  }
  SplitResult split = LinearSplit(boxes, 2);
  // Cluster membership: the two groups should be the two clusters.
  auto is_low = [](size_t i) { return i < 8; };
  bool left_all_low = std::all_of(split.left.begin(), split.left.end(),
                                  is_low);
  bool left_all_high = std::none_of(split.left.begin(), split.left.end(),
                                    is_low);
  EXPECT_TRUE(left_all_low || left_all_high);
}

TEST(LinearSplitTest, IdenticalBoxesFallBackGracefully) {
  std::vector<Aabb> boxes(10, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)));
  SplitResult split = LinearSplit(boxes, 3);
  EXPECT_GE(split.left.size(), 3u);
  EXPECT_GE(split.right.size(), 3u);
  EXPECT_EQ(split.left.size() + split.right.size(), 10u);
}

TEST(RTreeTest, EmptyTreeQueries) {
  RTree tree;
  std::vector<uint64_t> results;
  tree.WindowQuery(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), &results);
  EXPECT_TRUE(results.empty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.height(), 1);
}

TEST(RTreeTest, RejectsEmptyMbr) {
  RTree tree;
  EXPECT_TRUE(tree.Insert(Aabb(), 1).IsInvalidArgument());
}

TEST(RTreeTest, InsertAndQueryMatchesBruteForce) {
  Rng rng(42);
  RTree tree;
  std::vector<Aabb> boxes;
  for (uint64_t i = 0; i < 500; ++i) {
    boxes.push_back(RandomBox(&rng, 1000, 30));
    ASSERT_TRUE(tree.Insert(boxes.back(), i).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.size(), 500u);
  EXPECT_GT(tree.height(), 1);

  for (int q = 0; q < 50; ++q) {
    Aabb window = RandomBox(&rng, 1000, 200);
    std::vector<uint64_t> expected = BruteForceQuery(boxes, window);
    std::vector<uint64_t> actual;
    tree.WindowQuery(window, &actual);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "query " << q;
  }
}

TEST(RTreeTest, InvariantsHoldDuringGrowth) {
  Rng rng(7);
  RTreeOptions opt;
  opt.max_entries = 8;
  opt.min_entries = 3;
  RTree tree(opt);
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree.Insert(RandomBox(&rng, 500, 20), i).ok());
    if (i % 50 == 49) {
      ASSERT_TRUE(tree.CheckInvariants().ok()) << "after insert " << i;
    }
  }
}

TEST(RTreeTest, DeleteRemovesOnlyTarget) {
  Rng rng(11);
  RTree tree;
  std::vector<Aabb> boxes;
  for (uint64_t i = 0; i < 200; ++i) {
    boxes.push_back(RandomBox(&rng, 300, 15));
    ASSERT_TRUE(tree.Insert(boxes.back(), i).ok());
  }
  ASSERT_TRUE(tree.Delete(boxes[17], 17).ok());
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.size(), 199u);

  std::vector<uint64_t> results;
  tree.WindowQuery(boxes[17], &results);
  EXPECT_EQ(std::count(results.begin(), results.end(), 17u), 0);
  // A neighbour is still present.
  tree.WindowQuery(boxes[18], &results);
  EXPECT_EQ(std::count(results.begin(), results.end(), 18u), 1);
}

TEST(RTreeTest, DeleteNotFound) {
  RTree tree;
  ASSERT_TRUE(tree.Insert(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), 5).ok());
  EXPECT_TRUE(tree.Delete(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), 6).IsNotFound());
  EXPECT_TRUE(tree.Delete(Aabb(Vec3(2, 2, 2), Vec3(3, 3, 3)), 5).IsNotFound());
}

TEST(RTreeTest, DeleteEverythingThenReuse) {
  Rng rng(23);
  RTreeOptions opt;
  opt.max_entries = 8;
  opt.min_entries = 3;
  RTree tree(opt);
  std::vector<Aabb> boxes;
  for (uint64_t i = 0; i < 120; ++i) {
    boxes.push_back(RandomBox(&rng, 100, 5));
    ASSERT_TRUE(tree.Insert(boxes.back(), i).ok());
  }
  for (uint64_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(tree.Delete(boxes[i], i).ok()) << "delete " << i;
    ASSERT_TRUE(tree.CheckInvariants().ok()) << "invariants after " << i;
  }
  EXPECT_TRUE(tree.empty());
  // The tree remains usable after full drain.
  ASSERT_TRUE(tree.Insert(boxes[0], 999).ok());
  std::vector<uint64_t> results;
  tree.WindowQuery(boxes[0], &results);
  EXPECT_EQ(results, std::vector<uint64_t>{999});
}

TEST(RTreeTest, DeleteMatchesBruteForceQueries) {
  Rng rng(31);
  RTree tree;
  std::vector<Aabb> boxes;
  std::vector<bool> alive;
  for (uint64_t i = 0; i < 300; ++i) {
    boxes.push_back(RandomBox(&rng, 400, 20));
    alive.push_back(true);
    ASSERT_TRUE(tree.Insert(boxes.back(), i).ok());
  }
  // Delete a random half.
  for (uint64_t i = 0; i < 300; ++i) {
    if (rng.Bernoulli(0.5)) {
      ASSERT_TRUE(tree.Delete(boxes[i], i).ok());
      alive[i] = false;
    }
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (int q = 0; q < 30; ++q) {
    Aabb window = RandomBox(&rng, 400, 100);
    std::vector<uint64_t> expected;
    for (size_t i = 0; i < boxes.size(); ++i) {
      if (alive[i] && boxes[i].Intersects(window)) {
        expected.push_back(i);
      }
    }
    std::vector<uint64_t> actual;
    tree.WindowQuery(window, &actual);
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(RTreeTest, VisitDepthFirstParentsBeforeChildren) {
  Rng rng(3);
  RTree tree;
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree.Insert(RandomBox(&rng, 200, 10), i).ok());
  }
  int last_level = 1000;
  bool first = true;
  size_t count = 0;
  std::vector<int> levels;
  tree.VisitDepthFirst([&](size_t, const RTree::Node& node) {
    if (first) {
      EXPECT_EQ(node.level, tree.height() - 1);  // Root first.
      first = false;
    }
    levels.push_back(node.level);
    ++count;
  });
  EXPECT_EQ(count, tree.num_nodes());
  (void)last_level;
}

TEST(QuadraticSplitTest, RespectsMinFillAndPartition) {
  Rng rng(13);
  std::vector<Aabb> boxes;
  for (int i = 0; i < 33; ++i) {
    boxes.push_back(RandomBox(&rng, 100, 10));
  }
  SplitResult split = QuadraticSplit(boxes, 13);
  EXPECT_GE(split.left.size(), 13u);
  EXPECT_GE(split.right.size(), 13u);
  std::set<size_t> seen(split.left.begin(), split.left.end());
  seen.insert(split.right.begin(), split.right.end());
  EXPECT_EQ(seen.size(), boxes.size());
}

TEST(QuadraticSplitTest, SeparatesTwoClusters) {
  std::vector<Aabb> boxes;
  for (int i = 0; i < 6; ++i) {
    boxes.push_back(Aabb(Vec3(i, 0, 0), Vec3(i + 1, 1, 1)));
  }
  for (int i = 0; i < 6; ++i) {
    boxes.push_back(Aabb(Vec3(100 + i, 0, 0), Vec3(101 + i, 1, 1)));
  }
  SplitResult split = QuadraticSplit(boxes, 2);
  auto is_low = [](size_t i) { return i < 6; };
  bool left_pure = std::all_of(split.left.begin(), split.left.end(),
                               is_low) ||
                   std::none_of(split.left.begin(), split.left.end(),
                                is_low);
  EXPECT_TRUE(left_pure);
}

TEST(RTreeTest, QuadraticSplitTreeIsCorrect) {
  Rng rng(17);
  RTreeOptions opt;
  opt.max_entries = 8;
  opt.min_entries = 3;
  opt.split = SplitAlgorithm::kQuadratic;
  RTree tree(opt);
  std::vector<Aabb> boxes;
  for (uint64_t i = 0; i < 400; ++i) {
    boxes.push_back(RandomBox(&rng, 500, 20));
    ASSERT_TRUE(tree.Insert(boxes.back(), i).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (int q = 0; q < 25; ++q) {
    Aabb window = RandomBox(&rng, 500, 150);
    std::vector<uint64_t> expected = BruteForceQuery(boxes, window);
    std::vector<uint64_t> actual;
    tree.WindowQuery(window, &actual);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
}

class BulkLoadSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(BulkLoadSizes, MatchesBruteForce) {
  Rng rng(19);
  std::vector<std::pair<Aabb, uint64_t>> entries;
  std::vector<Aabb> boxes;
  for (uint64_t i = 0; i < GetParam(); ++i) {
    boxes.push_back(RandomBox(&rng, 800, 25));
    entries.emplace_back(boxes.back(), i);
  }
  RTreeOptions opt;
  opt.max_entries = 16;
  opt.min_entries = 6;
  Result<RTree> tree = RTree::BulkLoad(entries, opt);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_TRUE(tree->CheckInvariants().ok());
  EXPECT_EQ(tree->size(), GetParam());
  for (int q = 0; q < 20; ++q) {
    Aabb window = RandomBox(&rng, 800, 200);
    std::vector<uint64_t> expected = BruteForceQuery(boxes, window);
    std::vector<uint64_t> actual;
    tree->WindowQuery(window, &actual);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulkLoadSizes,
                         ::testing::Values(1, 15, 16, 17, 100, 1000, 2049));

TEST(RTreeTest, BulkLoadSupportsFurtherUpdates) {
  Rng rng(23);
  std::vector<std::pair<Aabb, uint64_t>> entries;
  for (uint64_t i = 0; i < 300; ++i) {
    entries.emplace_back(RandomBox(&rng, 300, 10), i);
  }
  Result<RTree> tree = RTree::BulkLoad(entries);
  ASSERT_TRUE(tree.ok());
  // Insert and delete still work on a bulk-loaded tree.
  Aabb extra = RandomBox(&rng, 300, 10);
  ASSERT_TRUE(tree->Insert(extra, 999).ok());
  ASSERT_TRUE(tree->Delete(entries[0].first, 0).ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  EXPECT_EQ(tree->size(), 300u);
}

TEST(RTreeTest, BulkLoadPacksTighterThanInsertion) {
  Rng rng(29);
  std::vector<std::pair<Aabb, uint64_t>> entries;
  RTree inserted;
  for (uint64_t i = 0; i < 2000; ++i) {
    Aabb box = RandomBox(&rng, 1000, 15);
    entries.emplace_back(box, i);
    ASSERT_TRUE(inserted.Insert(box, i).ok());
  }
  Result<RTree> bulk = RTree::BulkLoad(entries);
  ASSERT_TRUE(bulk.ok());
  // STR packs nodes full: fewer nodes than incremental insertion.
  EXPECT_LT(bulk->num_nodes(), inserted.num_nodes());
}

TEST(RTreeTest, BulkLoadRejectsEmptyMbr) {
  std::vector<std::pair<Aabb, uint64_t>> entries = {{Aabb(), 0}};
  EXPECT_TRUE(RTree::BulkLoad(entries).status().IsInvalidArgument());
}

TEST(PackedRTreeTest, RoundTripNode) {
  Rng rng(5);
  RTree tree;
  std::vector<Aabb> boxes;
  for (uint64_t i = 0; i < 150; ++i) {
    boxes.push_back(RandomBox(&rng, 300, 10));
    ASSERT_TRUE(tree.Insert(boxes.back(), i).ok());
  }
  PageDevice device;
  Result<PackedRTree> packed = PackedRTree::Pack(tree, &device);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_EQ(packed->num_node_pages(), tree.num_nodes());

  PackedRTree::PackedNode root;
  ASSERT_TRUE(packed->ReadNode(packed->root_page(), &root).ok());
  EXPECT_EQ(root.entries.size(), tree.node(tree.root_index()).entries.size());
}

TEST(PackedRTreeTest, DiskQueryMatchesInMemory) {
  Rng rng(9);
  RTree tree;
  std::vector<Aabb> boxes;
  for (uint64_t i = 0; i < 400; ++i) {
    boxes.push_back(RandomBox(&rng, 500, 25));
    ASSERT_TRUE(tree.Insert(boxes.back(), i).ok());
  }
  PageDevice device;
  Result<PackedRTree> packed = PackedRTree::Pack(tree, &device);
  ASSERT_TRUE(packed.ok());
  device.ResetStats();

  for (int q = 0; q < 20; ++q) {
    Aabb window = RandomBox(&rng, 500, 120);
    std::vector<uint64_t> mem;
    std::vector<uint64_t> disk;
    tree.WindowQuery(window, &mem);
    ASSERT_TRUE(packed->WindowQuery(window, &disk).ok());
    std::sort(mem.begin(), mem.end());
    std::sort(disk.begin(), disk.end());
    EXPECT_EQ(mem, disk);
  }
  // Disk queries actually bill I/O.
  EXPECT_GT(device.stats().page_reads, 0u);
}

// Randomized workload fuzz across fanouts and split algorithms: invariants
// and query correctness must hold through arbitrary insert/delete
// interleavings.
struct FuzzConfig {
  size_t max_entries;
  size_t min_entries;
  SplitAlgorithm split;
};

// "AngTanLinear_8_3": split, max and min entries. CTest names each case
// by this; gtest's default byte dump would include the struct's padding.
void PrintTo(const FuzzConfig& config, std::ostream* os) {
  *os << (config.split == SplitAlgorithm::kQuadratic ? "Quadratic"
                                                      : "AngTanLinear")
      << "_" << config.max_entries << "_" << config.min_entries;
}

class RTreeFuzz : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(RTreeFuzz, RandomInsertDeleteWorkload) {
  RTreeOptions opt;
  opt.max_entries = GetParam().max_entries;
  opt.min_entries = GetParam().min_entries;
  opt.split = GetParam().split;
  RTree tree(opt);
  Rng rng(101 + GetParam().max_entries);

  std::vector<std::pair<Aabb, uint64_t>> alive;
  uint64_t next_id = 0;
  for (int step = 0; step < 800; ++step) {
    if (alive.empty() || rng.Bernoulli(0.65)) {
      Aabb box = RandomBox(&rng, 600, 25);
      ASSERT_TRUE(tree.Insert(box, next_id).ok());
      alive.emplace_back(box, next_id++);
    } else {
      size_t victim = rng.NextUint64(alive.size());
      ASSERT_TRUE(tree.Delete(alive[victim].first, alive[victim].second)
                      .ok());
      alive.erase(alive.begin() + static_cast<ptrdiff_t>(victim));
    }
    if (step % 100 == 99) {
      ASSERT_TRUE(tree.CheckInvariants().ok()) << "step " << step;
      Aabb window = RandomBox(&rng, 600, 150);
      std::vector<uint64_t> expected;
      for (const auto& [box, id] : alive) {
        if (box.Intersects(window)) {
          expected.push_back(id);
        }
      }
      std::vector<uint64_t> actual;
      tree.WindowQuery(window, &actual);
      std::sort(expected.begin(), expected.end());
      std::sort(actual.begin(), actual.end());
      ASSERT_EQ(actual, expected) << "step " << step;
    }
  }
  EXPECT_EQ(tree.size(), alive.size());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RTreeFuzz,
    ::testing::Values(FuzzConfig{4, 2, SplitAlgorithm::kAngTanLinear},
                      FuzzConfig{8, 3, SplitAlgorithm::kAngTanLinear},
                      FuzzConfig{32, 13, SplitAlgorithm::kAngTanLinear},
                      FuzzConfig{8, 3, SplitAlgorithm::kQuadratic},
                      FuzzConfig{16, 6, SplitAlgorithm::kQuadratic}));

TEST(PackedRTreeTest, NodeTooLargeRejected) {
  RTreeOptions opt;
  opt.max_entries = 200;  // 200 * 56B > 4 KiB.
  opt.min_entries = 80;
  RTree tree(opt);
  Rng rng(1);
  for (uint64_t i = 0; i < 150; ++i) {
    ASSERT_TRUE(tree.Insert(RandomBox(&rng, 100, 5), i).ok());
  }
  PageDevice device;
  EXPECT_FALSE(PackedRTree::Pack(tree, &device).ok());
}

}  // namespace
}  // namespace hdov
