// Pins the legacy Fig. 3 search bit for bit: a CRC32C over every
// RetrievedLod field (DoV as raw float bits), the SearchStats counts and
// the store device's simulated I/O after each query, swept over worlds,
// storage schemes, cells, the Fig. 7 eta values and all three termination
// heuristics. The CRCs were recorded before the search's hot path was
// reworked; any change to search.cc must leave them as they are.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "hdov/builder.h"
#include "hdov/search.h"
#include "walkthrough/experiment_testbed.h"

namespace hdov {
namespace {

struct Pin {
  uint64_t queries;
  uint64_t results;
  uint32_t crc;
};

void AppendResult(const RetrievedLod& lod, std::string* out) {
  uint32_t dov_bits = 0;
  std::memcpy(&dov_bits, &lod.dov, sizeof(dov_bits));
  EncodeFixed32(out, static_cast<uint32_t>(lod.kind));
  EncodeFixed64(out, lod.owner);
  EncodeFixed32(out, lod.lod_level);
  EncodeFixed64(out, lod.model);
  EncodeFixed32(out, lod.triangle_count);
  EncodeFixed64(out, lod.byte_size);
  EncodeFixed32(out, dov_bits);
}

void AppendStats(const SearchStats& stats, const IoStats& io,
                 std::string* out) {
  EncodeFixed64(out, stats.nodes_visited);
  EncodeFixed64(out, stats.vpages_fetched);
  EncodeFixed64(out, stats.hidden_entries_pruned);
  EncodeFixed64(out, stats.internal_terminations);
  EncodeFixed64(out, io.page_reads);
  EncodeFixed64(out, io.seeks);
  EncodeFixed64(out, io.bytes_read);
}

// Builds the world, then one store per scheme, and runs every
// (cell, eta, heuristic) query through a fresh legacy searcher per scheme.
// Returns one pin per scheme, in `schemes` order.
std::vector<Pin> SweepWorld(const TestbedOptions& topt,
                            const std::vector<StorageScheme>& schemes) {
  Result<Testbed> bed = BuildTestbed(topt);
  EXPECT_TRUE(bed.ok()) << bed.status().ToString();
  if (!bed.ok()) {
    return {};
  }
  PageDevice model_device;
  ModelStore models(&model_device);
  const VisualOptions vopt = DefaultVisualOptions();
  Result<HdovTree> tree = HdovBuilder::Build(bed->scene, &models, vopt.build);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  if (!tree.ok()) {
    return {};
  }
  const double etas[] = {0.0,   0.0005, 0.001, 0.002,
                         0.003, 0.004,  0.006, 0.008};  // Fig. 7 sweep.
  const TerminationHeuristic heuristics[] = {TerminationHeuristic::kEq4,
                                             TerminationHeuristic::kNone,
                                             TerminationHeuristic::kCostModel};
  std::vector<Pin> pins;
  for (StorageScheme scheme : schemes) {
    PageDevice device;
    auto store = BuildStore(scheme, *tree, bed->table, &device);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    if (!store.ok()) {
      return {};
    }
    device.ResetStats();
    HdovSearcher searcher(&*tree, &bed->scene, &models, nullptr);
    Pin pin{0, 0, 0};
    std::vector<RetrievedLod> result;
    std::string bytes;
    for (double eta : etas) {
      for (TerminationHeuristic heuristic : heuristics) {
        SearchOptions opt;
        opt.eta = eta;
        opt.heuristic = heuristic;
        for (CellId c = 0; c < bed->table.num_cells(); ++c) {
          SearchStats stats;
          const Status s = searcher.Search(store->get(), c, opt, &result,
                                           &stats);
          EXPECT_TRUE(s.ok()) << s.ToString();
          bytes.clear();
          for (const RetrievedLod& lod : result) {
            AppendResult(lod, &bytes);
          }
          AppendStats(stats, device.stats(), &bytes);
          pin.crc = Crc32cExtend(pin.crc, bytes.data(), bytes.size());
          ++pin.queries;
          pin.results += result.size();
        }
      }
    }
    pins.push_back(pin);
  }
  return pins;
}

std::string PinString(const Pin& pin) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{%llu, %llu, 0x%08x}",
                static_cast<unsigned long long>(pin.queries),
                static_cast<unsigned long long>(pin.results), pin.crc);
  return buf;
}

void ExpectPins(const std::vector<Pin>& got, const std::vector<Pin>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "scheme #" << i);
    EXPECT_EQ(PinString(got[i]), PinString(want[i]));
  }
}

const std::vector<StorageScheme>& PaperSchemes() {
  static const std::vector<StorageScheme>* schemes =
      new std::vector<StorageScheme>{StorageScheme::kHorizontal,
                                     StorageScheme::kVertical,
                                     StorageScheme::kIndexedVertical};
  return *schemes;
}

TEST(SearchPinTest, SmallWorldsArePinned) {
  struct Case {
    TestbedOptions topt;
    std::vector<Pin> pins;  // Horizontal, vertical, indexed-vertical.
  };
  TestbedOptions a;
  a.blocks = 4;
  a.cells = 5;
  a.face_resolution = 16;
  a.samples_per_cell = 1;
  a.seed = 11;
  a.threads = 2;
  TestbedOptions b;
  b.blocks = 6;
  b.cells = 6;
  b.face_resolution = 24;
  b.samples_per_cell = 2;
  b.seed = 22;
  b.threads = 2;
  const Case kCases[] = {
      {a,
       {{600, 6911, 0x03cfd1da},
        {600, 6911, 0xba16eb32},
        {600, 6911, 0xba16eb32}}},
      {b,
       {{864, 23563, 0xef2444f9},
        {864, 23563, 0x2f7afecf},
        {864, 23563, 0x0e00d155}}},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(testing::Message() << "blocks " << c.topt.blocks);
    ExpectPins(SweepWorld(c.topt, PaperSchemes()), c.pins);
  }
}

TEST(SearchPinTest, LargePresetIsPinned) {
  // The benchmarks' large preset (20x20 blocks, 24x24 cells, 5 samples
  // per cell, 64 px faces).
  TestbedOptions topt;
  topt.blocks = 20;
  topt.cells = 24;
  topt.samples_per_cell = 5;
  topt.threads = 0;
  ExpectPins(SweepWorld(topt, PaperSchemes()),
             {{13824, 980806, 0x0c316a86},
              {13824, 980806, 0x9e221dd4},
              {13824, 980806, 0x5d9c1c3d}});
}

}  // namespace
}  // namespace hdov
