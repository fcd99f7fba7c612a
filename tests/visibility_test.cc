#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "common/crc32c.h"
#include "common/rng.h"
#include "persist/world_codec.h"
#include "scene/city_generator.h"
#include "telemetry/trace.h"
#include "visibility/cubemap_buffer.h"
#include "visibility/dov.h"
#include "visibility/dov_sampling.h"
#include "visibility/precompute.h"

namespace hdov {
namespace {

TEST(CubeMapTest, EmptyBufferSeesNothing) {
  CubeMapBuffer buffer;
  buffer.Reset(Vec3(0, 0, 0));
  EXPECT_DOUBLE_EQ(buffer.TotalCoverage(), 0.0);
}

TEST(CubeMapTest, PixelSolidAnglesSumToSphere) {
  // Rasterize an enclosing box: every pixel is covered, and the per-pixel
  // solid angles must sum to 4 pi.
  CubeMapOptions opt;
  opt.face_resolution = 16;
  CubeMapBuffer buffer(opt);
  buffer.Reset(Vec3(0, 0, 0));
  buffer.RasterizeBox(Aabb(Vec3(-5, -5, -5), Vec3(5, 5, 5)), 0);
  EXPECT_NEAR(buffer.TotalCoverage(), 1.0, 1e-9);
  EXPECT_NEAR(buffer.SolidAngleOf(0), 4.0 * M_PI, 1e-6);
}

TEST(CubeMapTest, DistantBoxSolidAngleMatchesAnalytic) {
  CubeMapOptions opt;
  opt.face_resolution = 256;  // The quad spans ~13 pixels at this distance.
  CubeMapBuffer buffer(opt);
  buffer.Reset(Vec3(0, 0, 0));
  // A 2x2 square at distance 20: exact solid angle of a rectangle with
  // half-widths a = b = 1 at distance d is 4 atan(ab / (d sqrt(a^2 + b^2 +
  // d^2))) = 0.009975 sr.
  buffer.RasterizeTriangle(Vec3(20, -1, -1), Vec3(20, 1, -1), Vec3(20, 1, 1),
                           7);
  buffer.RasterizeTriangle(Vec3(20, -1, -1), Vec3(20, 1, 1), Vec3(20, -1, 1),
                           7);
  const double exact = 0.009975;
  EXPECT_NEAR(buffer.SolidAngleOf(7), exact, 0.2 * exact);
}

TEST(CubeMapTest, NearerItemWinsZBuffer) {
  CubeMapOptions opt;
  opt.face_resolution = 32;
  CubeMapBuffer buffer(opt);
  buffer.Reset(Vec3(0, 0, 0));
  // Big far wall, small near blocker straight ahead (+x).
  buffer.RasterizeBox(Aabb(Vec3(30, -20, -20), Vec3(32, 20, 20)), 1);
  buffer.RasterizeBox(Aabb(Vec3(10, -2, -2), Vec3(11, 2, 2)), 2);
  double wall = buffer.SolidAngleOf(1);
  double blocker = buffer.SolidAngleOf(2);
  EXPECT_GT(blocker, 0.0);
  EXPECT_GT(wall, 0.0);
  // Rasterization order must not matter.
  CubeMapBuffer buffer2(opt);
  buffer2.Reset(Vec3(0, 0, 0));
  buffer2.RasterizeBox(Aabb(Vec3(10, -2, -2), Vec3(11, 2, 2)), 2);
  buffer2.RasterizeBox(Aabb(Vec3(30, -20, -20), Vec3(32, 20, 20)), 1);
  EXPECT_NEAR(buffer2.SolidAngleOf(1), wall, 1e-9);
  EXPECT_NEAR(buffer2.SolidAngleOf(2), blocker, 1e-9);
}

TEST(CubeMapTest, FullOcclusionGivesZero) {
  CubeMapOptions opt;
  opt.face_resolution = 32;
  CubeMapBuffer buffer(opt);
  buffer.Reset(Vec3(0, 0, 0));
  // The blocker fully covers the small target behind it (target's angular
  // footprint is a subset of the blocker's).
  buffer.RasterizeBox(Aabb(Vec3(5, -10, -10), Vec3(6, 10, 10)), 1);
  buffer.RasterizeBox(Aabb(Vec3(20, -1, -1), Vec3(21, 1, 1)), 2);
  EXPECT_DOUBLE_EQ(buffer.SolidAngleOf(2), 0.0);
}

TEST(CubeMapTest, AccumulateMatchesPerItemScan) {
  CubeMapOptions opt;
  opt.face_resolution = 24;
  CubeMapBuffer buffer(opt);
  buffer.Reset(Vec3(0, 0, 0));
  buffer.RasterizeBox(Aabb(Vec3(5, -1, -1), Vec3(6, 1, 1)), 0);
  buffer.RasterizeBox(Aabb(Vec3(-8, -2, -2), Vec3(-7, 2, 2)), 1);
  std::vector<double> angles(2, 0.0);
  buffer.AccumulateSolidAngles(&angles);
  EXPECT_NEAR(angles[0], buffer.SolidAngleOf(0), 1e-12);
  EXPECT_NEAR(angles[1], buffer.SolidAngleOf(1), 1e-12);
}

TEST(CubeMapTest, SurroundingGeometrySeenOnAllFaces) {
  CubeMapOptions opt;
  opt.face_resolution = 16;
  CubeMapBuffer buffer(opt);
  buffer.Reset(Vec3(1, 2, 3));
  // Six separated boxes, one along each axis direction.
  Vec3 center(1, 2, 3);
  int item = 0;
  for (const Vec3& dir :
       {Vec3(1, 0, 0), Vec3(-1, 0, 0), Vec3(0, 1, 0), Vec3(0, -1, 0),
        Vec3(0, 0, 1), Vec3(0, 0, -1)}) {
    Vec3 pos = center + dir * 10.0;
    buffer.RasterizeBox(Aabb(pos - Vec3(1, 1, 1), pos + Vec3(1, 1, 1)),
                        item++);
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_GT(buffer.SolidAngleOf(i), 0.0) << "direction " << i;
  }
}

class ScenedDovTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Three boxes in a row along +x from the origin viewpoint: near,
    // middle (hidden), far (partially visible above the near one).
    Object near_box;
    near_box.mbr = Aabb(Vec3(10, -5, 0), Vec3(12, 5, 10));
    near_box.lods = LodChain::Proxy(100, LodChainOptions());
    scene_.AddObject(std::move(near_box));

    Object hidden;
    hidden.mbr = Aabb(Vec3(20, -4, 0), Vec3(22, 4, 8));  // Shadow of near.
    hidden.lods = LodChain::Proxy(100, LodChainOptions());
    scene_.AddObject(std::move(hidden));

    Object tall_far;
    tall_far.mbr = Aabb(Vec3(40, -5, 0), Vec3(42, 5, 60));  // Pokes above.
    tall_far.lods = LodChain::Proxy(100, LodChainOptions());
    scene_.AddObject(std::move(tall_far));
  }

  Scene scene_;
};

TEST_F(ScenedDovTest, OcclusionAndRange) {
  DovOptions opt;
  opt.cubemap.face_resolution = 64;
  DovComputer computer(&scene_, opt);
  const std::vector<float>& dov = computer.ComputePointDov(Vec3(0, 0, 5));
  ASSERT_EQ(dov.size(), 3u);
  EXPECT_GT(dov[0], 0.0f);          // Near box visible.
  EXPECT_FLOAT_EQ(dov[1], 0.0f);    // Fully occluded.
  EXPECT_GT(dov[2], 0.0f);          // Tall box pokes above.
  EXPECT_LT(dov[2], dov[0]);        // ... but is less prominent.
  for (float d : dov) {
    EXPECT_GE(d, 0.0f);
    EXPECT_LE(d, 0.5f + 1e-5f);     // MAXDOV bound (outside the MBR).
  }
}

TEST_F(ScenedDovTest, RegionDovIsMaxOverSamples) {
  // One cell in front of the boxes, 5 samples: its center and mid-height
  // corners. Its region DoV must be exactly the per-object max of the
  // point DoVs at those samples (Eq. 2).
  CellGridOptions gopt;
  gopt.cells_x = 1;
  gopt.cells_y = 1;
  Result<CellGrid> grid =
      CellGrid::Build(Aabb(Vec3(-10, -10, 0), Vec3(0, 10, 1)), gopt);
  ASSERT_TRUE(grid.ok());
  PrecomputeOptions popt;
  popt.dov.cubemap.face_resolution = 32;
  popt.samples_per_cell = 5;
  Result<VisibilityTable> table = PrecomputeVisibility(scene_, *grid, popt);
  ASSERT_TRUE(table.ok());

  const Aabb cell = grid->CellBounds(0);
  const Vec3 center = cell.Center();
  std::vector<Vec3> samples = {center};
  for (int i = 0; i < 4; ++i) {
    samples.emplace_back(cell.Corner(i).x, cell.Corner(i).y, center.z);
  }
  DovComputer computer(&scene_, popt.dov);
  std::vector<float> region(scene_.size(), 0.0f);
  for (const Vec3& p : samples) {
    const std::vector<float>& point = computer.ComputePointDov(p);
    for (size_t i = 0; i < region.size(); ++i) {
      region[i] = std::max(region[i], point[i]);
    }
  }
  for (ObjectId id = 0; id < region.size(); ++id) {
    EXPECT_EQ(table->cell(0).DovOf(id), region[id]) << "object " << id;
  }
  EXPECT_GT(table->cell(0).num_visible(), 0u);
}

TEST_F(ScenedDovTest, RasterizerAgreesWithMonteCarloReference) {
  // Cross-validation: the cube-map item buffer and the ray-sampled
  // estimator implement the same DoV definition and must agree within
  // their combined discretization error.
  DovOptions opt;
  opt.cubemap.face_resolution = 128;
  DovComputer computer(&scene_, opt);
  const Vec3 eye(0, 0, 5);
  const std::vector<float>& raster = computer.ComputePointDov(eye);

  SamplingDovOptions sopt;
  sopt.num_rays = 200000;
  std::vector<float> sampled = ComputePointDovSampled(scene_, eye, sopt);

  ASSERT_EQ(raster.size(), sampled.size());
  for (size_t i = 0; i < raster.size(); ++i) {
    EXPECT_NEAR(raster[i], sampled[i],
                0.1 * std::max(raster[i], sampled[i]) + 0.001)
        << "object " << i;
  }
}

TEST(CubeMapTest, CoverageEqualsSumOfItemAngles) {
  // Property: the total covered solid angle is exactly the sum of every
  // item's visible solid angle (pixels are partitioned among items).
  Rng rng(91);
  CubeMapOptions opt;
  opt.face_resolution = 24;
  CubeMapBuffer buffer(opt);
  buffer.Reset(Vec3(0, 0, 0));
  const uint32_t kItems = 40;
  for (uint32_t item = 0; item < kItems; ++item) {
    Vec3 center(rng.Uniform(-60, 60), rng.Uniform(-60, 60),
                rng.Uniform(-60, 60));
    if (center.Length() < 5.0) {
      center = center + Vec3(10, 10, 10);
    }
    Vec3 half(rng.Uniform(1, 6), rng.Uniform(1, 6), rng.Uniform(1, 6));
    buffer.RasterizeBox(Aabb(center - half, center + half), item);
  }
  std::vector<double> angles(kItems, 0.0);
  double total = buffer.AccumulateSolidAngles(&angles);
  double sum = 0.0;
  for (double a : angles) {
    sum += a;
  }
  EXPECT_NEAR(total, sum, 1e-9);
  EXPECT_NEAR(buffer.TotalCoverage(), total / (4.0 * M_PI), 1e-12);
}

// A box of kind `kind % 9` for eye point `eye`: the cases whole-box
// culling and the clip-free paths must get exactly right. `axis` picks the
// direction of kinds 3-4 and 8 and the side plane of kinds 6-7.
Aabb DifferentialBox(Rng& rng, const Vec3& eye, int kind, int axis) {
  static const Vec3 kAxes[6] = {Vec3(1, 0, 0), Vec3(-1, 0, 0),
                                Vec3(0, 1, 0), Vec3(0, -1, 0),
                                Vec3(0, 0, 1), Vec3(0, 0, -1)};
  const Vec3 half(rng.Uniform(0.5, 6), rng.Uniform(0.5, 6),
                  rng.Uniform(0.5, 6));
  switch (kind % 9) {
    case 0: {  // Anywhere around the eye.
      const Vec3 center = eye + Vec3(rng.Uniform(-40, 40),
                                     rng.Uniform(-40, 40),
                                     rng.Uniform(-40, 40));
      return Aabb(center - half, center + half);
    }
    case 1: {  // Straddles the eye's x = const plane, off to +y.
      const double d = rng.Uniform(0.1, 10);
      return Aabb(eye + Vec3(-half.x, d, -half.z),
                  eye + Vec3(half.x, d + half.y, half.z));
    }
    case 2: {  // One corner a hair either side of the +x face's side
               // clip plane y = (1 + 1e-9) x, the other corners outside.
      const double d = rng.Uniform(1, 20);
      const double y = d * (1.0 + 1e-9) + d * rng.Uniform(-1e-12, 1e-12);
      const Vec3 corner = eye + Vec3(d, y, rng.Uniform(-2, 2));
      return Aabb(corner - Vec3(half.x, 0, 0),
                  corner + Vec3(0, half.y, half.z));
    }
    case 3: {  // A near wall across one axis...
      const Vec3& dir = kAxes[axis];
      const Vec3 center = eye + dir * rng.Uniform(3, 5);
      const Vec3 wall = Vec3(8, 8, 8) - Vec3(std::fabs(dir.x),
                                             std::fabs(dir.y),
                                             std::fabs(dir.z)) * 7.5;
      return Aabb(center - wall, center + wall);
    }
    case 4: {  // ...and a small box fully behind it.
      const Vec3 center = eye + kAxes[axis] * rng.Uniform(15, 30);
      return Aabb(center - Vec3(1, 1, 1), center + Vec3(1, 1, 1));
    }
    case 5: {  // A corner exactly at the eye.
      return Aabb(eye, eye + half);
    }
    case 6:    // Every corner inside the +x face, one of them within
    case 7: {  // 1e-12 (relative) of a side plane: just inside it (6) or
               // just outside (7), so only some triangles skip the clip.
      const double d = rng.Uniform(1, 20);
      const double slack = d * rng.Uniform(0.2e-12, 1e-12);
      const double edge =
          d * (1.0 + 1e-9) + (kind % 9 == 6 ? -slack : slack);
      // Lateral ranges: the chosen one ends at `edge`, the other stays
      // well inside (|coordinate| < 0.9 d at depth >= d).
      double lo[2] = {edge - d * rng.Uniform(0.1, 1.0),
                      -d * rng.Uniform(0.0, 0.9)};
      double hi[2] = {edge, d * rng.Uniform(0.0, 0.9)};
      if (axis % 2 == 1) {  // Mirror onto the negative side plane.
        std::swap(lo[0], hi[0]);
        lo[0] = -lo[0];
        hi[0] = -hi[0];
      }
      // Which range is y: the plane is y = +-(1 + 1e-9) x for y = 0 and
      // z = +-(1 + 1e-9) x for y = 1.
      const int y = axis % 4 < 2 ? 0 : 1;
      return Aabb(eye + Vec3(d, lo[y], lo[1 - y]),
                  eye + Vec3(d + half.x, hi[y], hi[1 - y]));
    }
    default: {  // A thin box straight ahead whose near face lies at the
                // near clip depth 1e-6 give or take 3 ulps (exactly so
                // where the eye's coordinate on that axis is 0).
      double t = 1e-6;
      const int steps = rng.UniformInt(-3, 3);
      for (int k = 0; k < std::abs(steps); ++k) {
        t = std::nextafter(t, steps > 0 ? 1.0 : 0.0);
      }
      const Vec3& dir = kAxes[axis];
      const Vec3 lateral = Vec3(1, 1, 1) - Vec3(std::fabs(dir.x),
                                                std::fabs(dir.y),
                                                std::fabs(dir.z));
      // Lateral offsets within +-0.9 t keep the near face inside the
      // side planes.
      const double a = -t * rng.Uniform(0.0, 0.9);
      const double b = t * rng.Uniform(0.0, 0.9);
      Aabb box = Aabb::Empty();
      box.Extend(eye + dir * t + lateral * a);
      box.Extend(eye + dir * (t + half.x) + lateral * b);
      return box;
    }
  }
}

// Bit patterns of the buffer's stored depths: equal only if every float
// is the same bit for bit.
std::vector<uint32_t> DepthBits(const CubeMapBuffer& buffer) {
  std::vector<uint32_t> bits;
  for (float d : buffer.inverse_depths()) {
    bits.push_back(std::bit_cast<uint32_t>(d));
  }
  return bits;
}

TEST(CubeMapTest, RasterizeBoxMatchesItsTwelveTriangles) {
  // RasterizeBox culls whole faces before clipping and skips the clip
  // where a box lies inside a face; every pixel it writes, item and depth,
  // must be exactly that of its 12 triangles drawn one at a time, in the
  // same order.
  static constexpr int kQuads[6][4] = {
      {0, 2, 3, 1}, {4, 5, 7, 6}, {0, 1, 5, 4},
      {2, 6, 7, 3}, {0, 4, 6, 2}, {1, 3, 7, 5},
  };
  constexpr uint32_t kItems = 45;
  Rng rng(1203);
  uint32_t crc = 0;  // Over every trial's triangle-drawn buffer.
  for (int trial = 0; trial < 40; ++trial) {
    CubeMapOptions opt;
    opt.face_resolution = trial % 2 == 0 ? 16 : 33;
    // Every fourth eye sits at the origin, where kind 8's near depths are
    // exact.
    const Vec3 eye = trial % 4 == 3 ? Vec3(0, 0, 0)
                                    : Vec3(rng.Uniform(-5, 5),
                                           rng.Uniform(-5, 5),
                                           rng.Uniform(0, 3));
    CubeMapBuffer boxes(opt);
    CubeMapBuffer triangles(opt);
    boxes.Reset(eye);
    triangles.Reset(eye);
    for (uint32_t item = 0; item < kItems; ++item) {
      const int axis = (trial + static_cast<int>(item) / 9) % 6;
      const Aabb box = DifferentialBox(rng, eye, static_cast<int>(item), axis);
      boxes.RasterizeBox(box, item);
      for (const auto& q : kQuads) {
        triangles.RasterizeTriangle(box.Corner(q[0]), box.Corner(q[1]),
                                    box.Corner(q[2]), item);
        triangles.RasterizeTriangle(box.Corner(q[0]), box.Corner(q[2]),
                                    box.Corner(q[3]), item);
      }
    }
    EXPECT_EQ(boxes.items(), triangles.items()) << "trial " << trial;
    EXPECT_EQ(DepthBits(boxes), DepthBits(triangles)) << "trial " << trial;
    const std::vector<uint32_t> depths = DepthBits(triangles);
    crc = Crc32cExtend(crc, triangles.items().data(),
                       triangles.items().size() * sizeof(uint32_t));
    crc = Crc32cExtend(crc, depths.data(), depths.size() * sizeof(uint32_t));
  }
  // Both paths above skip the clip by the same rule; this pin, recorded
  // when every triangle was still clipped, holds the rule to the clipper.
  EXPECT_EQ(crc, 0xfcc1cc6au);
}

TEST(CubeMapTest, BoundaryTrianglesArePinned) {
  // Loose triangles whose vertices sit a few ulps either side of a face's
  // side planes or its near plane: where skipping the clip is decided.
  // The fingerprint was recorded when every triangle was still clipped.
  Rng rng(4411);
  auto nudge = [&](double x) {  // x moved by -3..3 ulps.
    const int steps = rng.UniformInt(-3, 3);
    for (int k = 0; k < std::abs(steps); ++k) {
      x = std::nextafter(x, steps > 0 ? HUGE_VAL : -HUGE_VAL);
    }
    return x;
  };
  uint32_t crc = 0;
  for (int trial = 0; trial < 200; ++trial) {
    CubeMapOptions opt;
    opt.face_resolution = 8 + trial % 41;
    CubeMapBuffer buffer(opt);
    buffer.Reset(Vec3(0, 0, 0));
    for (uint32_t item = 0; item < 20; ++item) {
      const double d = rng.Uniform(1e-7, 10);
      Vec3 v[3];
      for (Vec3& p : v) {
        // Depth: the near clip depth 1e-6, or near `d`.
        p.x = rng.Bernoulli(0.3) ? nudge(1e-6) : d * rng.Uniform(0.5, 2);
        // y on a side plane of the +x face, or anywhere inside it.
        const double side = rng.Bernoulli(0.5) ? 1.0 : -1.0;
        const double along = rng.Bernoulli(0.5) ? 1.0 : rng.Uniform(-1, 1);
        p.y = nudge(p.x * (1.0 + 1e-9) * side * along);
        p.z = p.x * rng.Uniform(-1, 1);
      }
      buffer.RasterizeTriangle(v[0], v[1], v[2], item);
    }
    const std::vector<uint32_t> depths = DepthBits(buffer);
    crc = Crc32cExtend(crc, buffer.items().data(),
                       buffer.items().size() * sizeof(uint32_t));
    crc = Crc32cExtend(crc, depths.data(), depths.size() * sizeof(uint32_t));
  }
  EXPECT_EQ(crc, 0x7de74d08u);
}

TEST(CubeMapTest, DeterministicAcrossRuns) {
  CubeMapOptions opt;
  opt.face_resolution = 20;
  auto render = [&] {
    CubeMapBuffer buffer(opt);
    buffer.Reset(Vec3(1, 2, 3));
    buffer.RasterizeBox(Aabb(Vec3(10, -3, -3), Vec3(12, 3, 3)), 1);
    buffer.RasterizeBox(Aabb(Vec3(-9, -2, 0), Vec3(-7, 2, 8)), 2);
    return std::make_pair(buffer.SolidAngleOf(1), buffer.SolidAngleOf(2));
  };
  auto a = render();
  auto b = render();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(SamplingDovTest, HitFractionsSumBelowOne) {
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = 3;
  copt.blocks_y = 3;
  Result<Scene> city = GenerateCity(copt);
  ASSERT_TRUE(city.ok());
  Vec3 eye = city->bounds().Center();
  eye.z = 1.7;
  SamplingDovOptions sopt;
  sopt.num_rays = 20000;
  std::vector<float> dov = ComputePointDovSampled(*city, eye, sopt);
  double total = 0.0;
  for (float d : dov) {
    total += d;
  }
  EXPECT_LE(total, 1.0 + 1e-6);  // A partition of the sphere at most.
  EXPECT_GT(total, 0.0);
}

TEST(PrecomputeTest, CityVisibilityIsPlausible) {
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = 3;
  copt.blocks_y = 3;
  Result<Scene> city = GenerateCity(copt);
  ASSERT_TRUE(city.ok());

  CellGridOptions gopt;
  gopt.cells_x = 3;
  gopt.cells_y = 3;
  Result<CellGrid> grid = CellGrid::Build(city->bounds(), gopt);
  ASSERT_TRUE(grid.ok());

  PrecomputeOptions popt;
  popt.dov.cubemap.face_resolution = 24;
  popt.samples_per_cell = 1;
  Result<VisibilityTable> table = PrecomputeVisibility(*city, *grid, popt);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->num_cells(), 9u);

  // Every cell should see something, but occlusion should hide a part of
  // the city from most cells.
  size_t cells_with_hidden = 0;
  for (CellId c = 0; c < table->num_cells(); ++c) {
    const CellVisibility& cell = table->cell(c);
    EXPECT_GT(cell.num_visible(), 0u) << "cell " << c;
    EXPECT_LE(cell.num_visible(), city->size());
    if (cell.num_visible() < city->size()) {
      ++cells_with_hidden;
    }
    // Sorted ids and positive DoVs.
    for (size_t i = 0; i < cell.ids.size(); ++i) {
      EXPECT_GT(cell.dov[i], 0.0f);
      if (i > 0) {
        EXPECT_LT(cell.ids[i - 1], cell.ids[i]);
      }
    }
  }
  EXPECT_GT(cells_with_hidden, 0u);
  EXPECT_GT(table->AverageVisibleObjects(), 0.0);
}

TEST(PrecomputeTest, MoreSamplesNeverShrinkVisibility) {
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = 2;
  copt.blocks_y = 2;
  Result<Scene> city = GenerateCity(copt);
  ASSERT_TRUE(city.ok());
  CellGridOptions gopt;
  gopt.cells_x = 2;
  gopt.cells_y = 2;
  Result<CellGrid> grid = CellGrid::Build(city->bounds(), gopt);
  ASSERT_TRUE(grid.ok());

  PrecomputeOptions p1;
  p1.dov.cubemap.face_resolution = 24;
  p1.samples_per_cell = 1;
  PrecomputeOptions p5 = p1;
  p5.samples_per_cell = 5;
  Result<VisibilityTable> t1 = PrecomputeVisibility(*city, *grid, p1);
  Result<VisibilityTable> t5 = PrecomputeVisibility(*city, *grid, p5);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t5.ok());
  for (CellId c = 0; c < t1->num_cells(); ++c) {
    // Eq. 2 is a max over samples: more samples -> more conservative.
    for (size_t i = 0; i < t1->cell(c).ids.size(); ++i) {
      ObjectId id = t1->cell(c).ids[i];
      EXPECT_GE(t5->cell(c).DovOf(id) + 1e-7f, t1->cell(c).dov[i]);
    }
  }
}

TEST(PrecomputeTest, ProgressCallbackRuns) {
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = 2;
  copt.blocks_y = 2;
  Result<Scene> city = GenerateCity(copt);
  ASSERT_TRUE(city.ok());
  CellGridOptions gopt;
  gopt.cells_x = 2;
  gopt.cells_y = 2;
  Result<CellGrid> grid = CellGrid::Build(city->bounds(), gopt);
  ASSERT_TRUE(grid.ok());
  PrecomputeOptions popt;
  popt.dov.cubemap.face_resolution = 16;
  popt.samples_per_cell = 1;
  uint32_t calls = 0;
  ASSERT_TRUE(PrecomputeVisibility(*city, *grid, popt,
                                   [&](uint32_t done, uint32_t total) {
                                     ++calls;
                                     EXPECT_LE(done, total);
                                   })
                  .ok());
  EXPECT_EQ(calls, 4u);
}

Object ProxyBox(const Aabb& mbr) {
  Object obj;
  obj.mbr = mbr;
  obj.lods = LodChain::Proxy(100, LodChainOptions());
  return obj;
}

TEST(PushOutOfObjectsTest, OutsidePointIsUntouched) {
  Scene scene;
  scene.AddObject(ProxyBox(Aabb(Vec3(0, 0, 0), Vec3(10, 10, 10))));
  const Vec3 p(20, 5, 5);
  EXPECT_TRUE(PushOutOfObjects(scene, p) == p);
}

TEST(PushOutOfObjectsTest, InsideSingleBoxExitsNearestFace) {
  Scene scene;
  scene.AddObject(ProxyBox(Aabb(Vec3(0, 0, 0), Vec3(10, 10, 10))));
  // (1, 5, 5): min-x is the shallowest face (depth 1), so the point exits
  // through it with the 0.05 clearance. z never changes (an eye-height
  // viewpoint cannot step over a building).
  const Vec3 out = PushOutOfObjects(scene, Vec3(1, 5, 5));
  EXPECT_NEAR(out.x, -0.05, 1e-12);
  EXPECT_DOUBLE_EQ(out.y, 5);
  EXPECT_DOUBLE_EQ(out.z, 5);
  EXPECT_FALSE(scene.objects()[0].mbr.Contains(out));
}

TEST(PushOutOfObjectsTest, OverlappingBoxesEscapeBoth) {
  // Exiting A through min-x lands inside B; the second round must then
  // escape B too (here through min-y).
  Scene scene;
  scene.AddObject(ProxyBox(Aabb(Vec3(0, 0, 0), Vec3(10, 2, 10))));   // A
  scene.AddObject(ProxyBox(Aabb(Vec3(-5, 0, 0), Vec3(1, 2, 10))));   // B
  const Vec3 out = PushOutOfObjects(scene, Vec3(0.5, 0.5, 1));
  for (const Object& obj : scene.objects()) {
    EXPECT_FALSE(obj.mbr.Contains(out));
  }
}

TEST(PushOutOfObjectsTest, PathologicalOverlapTerminates) {
  // A and B overlap on a thin x sliver and both span a huge y range, so
  // the min-penetration exit of each box lands inside the other: A pushes
  // the point to x = -0.05 (inside B), B pushes it to x = 0.09 (inside A),
  // forever. The 4-round cap must give up and return a point rather than
  // loop; the result is still inside one of the boxes.
  Scene scene;
  scene.AddObject(ProxyBox(Aabb(Vec3(0, -100, 0), Vec3(1, 100, 10))));
  scene.AddObject(ProxyBox(Aabb(Vec3(-10, -100, 0), Vec3(0.04, 100, 10))));
  const Vec3 out = PushOutOfObjects(scene, Vec3(0.5, 0, 5));
  bool inside_any = false;
  for (const Object& obj : scene.objects()) {
    inside_any = inside_any || obj.mbr.Contains(out);
  }
  EXPECT_TRUE(inside_any);  // Gave up, by design, instead of iterating on.
}

TEST(PrecomputeTest, ParallelMatchesSequentialBitExact) {
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = 4;
  copt.blocks_y = 4;
  Result<Scene> city = GenerateCity(copt);
  ASSERT_TRUE(city.ok());
  CellGridOptions gopt;
  gopt.cells_x = 5;  // 25 cells over (up to) 5 slots: uneven distribution.
  gopt.cells_y = 5;
  Result<CellGrid> grid = CellGrid::Build(city->bounds(), gopt);
  ASSERT_TRUE(grid.ok());

  PrecomputeOptions seq;
  seq.dov.cubemap.face_resolution = 24;
  seq.samples_per_cell = 2;
  seq.threads = 1;
  PrecomputeOptions par = seq;
  par.threads = 4;

  Result<VisibilityTable> t_seq = PrecomputeVisibility(*city, *grid, seq);
  Result<VisibilityTable> t_par = PrecomputeVisibility(*city, *grid, par);
  ASSERT_TRUE(t_seq.ok());
  ASSERT_TRUE(t_par.ok());
  ASSERT_EQ(t_seq->num_cells(), t_par->num_cells());
  for (CellId c = 0; c < t_seq->num_cells(); ++c) {
    // Bit-identical, not approximately equal: each cell's DoV depends only
    // on that cell, so the parallel schedule must not change a single ulp.
    EXPECT_EQ(t_seq->cell(c).ids, t_par->cell(c).ids) << "cell " << c;
    EXPECT_EQ(t_seq->cell(c).dov, t_par->cell(c).dov) << "cell " << c;
  }
}

// Proxy city of blocks x blocks (default seed) with a cells x cells grid,
// precomputed with `popt`.
Result<VisibilityTable> PrecomputeCity(int blocks, int cells,
                                       const PrecomputeOptions& popt) {
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = blocks;
  copt.blocks_y = blocks;
  HDOV_ASSIGN_OR_RETURN(Scene city, GenerateCity(copt));
  CellGridOptions gopt;
  gopt.cells_x = cells;
  gopt.cells_y = cells;
  HDOV_ASSIGN_OR_RETURN(CellGrid grid, CellGrid::Build(city.bounds(), gopt));
  return PrecomputeVisibility(city, grid, popt);
}

// Size and CRC32C of the table's snapshot encoding: a bit-exact
// fingerprint of every id and every DoV float.
std::pair<size_t, uint32_t> TableFingerprint(const VisibilityTable& table) {
  std::string bytes;
  EncodeVisibilityTable(table, &bytes);
  return {bytes.size(), Crc32c(bytes)};
}

TEST(PrecomputeTest, LargePresetTableIsPinned) {
  // The large preset the benchmarks build (20x20 blocks, 24x24 cells, 5
  // samples per cell, 64 px faces). Work-saving changes to the precompute
  // must leave every bit of it as recorded here.
  PrecomputeOptions popt;
  popt.dov.cubemap.face_resolution = 64;
  popt.samples_per_cell = 5;
  popt.threads = 0;
  Result<VisibilityTable> table = PrecomputeCity(20, 24, popt);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const auto [size, crc] = TableFingerprint(*table);
  EXPECT_EQ(size, 411052u);
  EXPECT_EQ(crc, 0x711d6745u);
}

TEST(PrecomputeTest, SmallWorldTablesArePinned) {
  struct Case {
    int samples;
    bool avoid_interiors;
    int resolution;
    size_t size;
    uint32_t crc;
  };
  // Recorded before culling and viewpoint sharing were added.
  const Case kCases[] = {
      {1, true, 16, 2408u, 0x42cb8257u},
      {2, false, 24, 3440u, 0x7f4f7ef0u},
      {5, true, 24, 5184u, 0x23e250b4u},
      {5, false, 16, 4560u, 0xc99c4d55u},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(testing::Message() << "samples " << c.samples << " avoid "
                                    << c.avoid_interiors << " resolution "
                                    << c.resolution);
    PrecomputeOptions popt;
    popt.dov.cubemap.face_resolution = c.resolution;
    popt.samples_per_cell = c.samples;
    popt.avoid_object_interiors = c.avoid_interiors;
    popt.threads = 2;
    Result<VisibilityTable> table = PrecomputeCity(4, 5, popt);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    const auto [size, crc] = TableFingerprint(*table);
    EXPECT_EQ(size, c.size);
    EXPECT_EQ(crc, c.crc);
  }
}

TEST(PrecomputeTest, MeshLodTableIsPinned) {
  // Full-geometry city rasterized through its LoD meshes
  // (RasterizeTriangle), not its MBR boxes: both the coarsest occluder
  // level and the finest one. Recorded before the clip-free paths.
  CityOptions copt;
  copt.mode = GeometryMode::kFull;
  copt.blocks_x = 3;
  copt.blocks_y = 3;
  copt.facade_columns = 4;
  copt.facade_rows = 6;
  copt.bunny_subdivisions = 2;
  copt.park_fraction = 0.4;
  Result<Scene> city = GenerateCity(copt);
  ASSERT_TRUE(city.ok()) << city.status().ToString();
  CellGridOptions gopt;
  gopt.cells_x = 4;
  gopt.cells_y = 4;
  Result<CellGrid> grid = CellGrid::Build(city->bounds(), gopt);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  struct Case {
    size_t lod_level;
    size_t size;
    uint32_t crc;
  };
  const Case kCases[] = {
      {static_cast<size_t>(-1), 3524u, 0xcd5ff545u},
      {0, 2988u, 0x546fcdaeu},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(testing::Message() << "lod level " << c.lod_level);
    PrecomputeOptions popt;
    popt.dov.cubemap.face_resolution = 32;
    popt.dov.geometry = OccluderGeometry::kMeshLod;
    popt.dov.occluder_lod_level = c.lod_level;
    popt.samples_per_cell = 5;
    popt.threads = 2;
    Result<VisibilityTable> table = PrecomputeVisibility(*city, *grid, popt);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    const auto [size, crc] = TableFingerprint(*table);
    EXPECT_EQ(size, c.size);
    EXPECT_EQ(crc, c.crc);
  }
}

TEST(PrecomputeTest, TelemetryCountsSharedViewpoints) {
  // Neighbouring cells share corner samples and each distinct viewpoint
  // is rendered once; precompute.viewpoints counts those renders. Spans
  // stay one per cell under one precompute root.
  telemetry::Telemetry tel;
  tel.tracer().set_enabled(true);
  PrecomputeOptions popt;
  popt.dov.cubemap.face_resolution = 16;
  popt.samples_per_cell = 5;
  popt.avoid_object_interiors = false;
  popt.threads = 2;
  popt.telemetry = &tel;
  ASSERT_TRUE(PrecomputeCity(2, 4, popt).ok());
  const uint64_t samples =
      tel.metrics().GetCounter("precompute.samples")->value();
  const uint64_t viewpoints =
      tel.metrics().GetCounter("precompute.viewpoints")->value();
  EXPECT_EQ(tel.metrics().GetCounter("precompute.cells")->value(), 16u);
  EXPECT_EQ(samples, 16u * 5);
  EXPECT_GT(viewpoints, 16u);       // Every center is a viewpoint of its own,
  EXPECT_LT(viewpoints, samples);   // but corners are shared.
  const telemetry::SpanForest forest =
      telemetry::DecodeSpanForest(tel.tracer().dump());
  const auto count = [&forest](std::string_view name) {
    return std::count_if(
        forest.spans.begin(), forest.spans.end(),
        [name](const telemetry::TraceSpan& s) { return s.name == name; });
  };
  EXPECT_EQ(count("precompute"), 1);
  EXPECT_EQ(count("cell"), 16);
}

TEST(PrecomputeTest, ThreadedProgressIsSerializedAndMonotonic) {
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = 2;
  copt.blocks_y = 2;
  Result<Scene> city = GenerateCity(copt);
  ASSERT_TRUE(city.ok());
  CellGridOptions gopt;
  gopt.cells_x = 4;
  gopt.cells_y = 4;
  Result<CellGrid> grid = CellGrid::Build(city->bounds(), gopt);
  ASSERT_TRUE(grid.ok());
  PrecomputeOptions popt;
  popt.dov.cubemap.face_resolution = 16;
  popt.samples_per_cell = 1;
  popt.threads = 4;
  // The callback contract holds under threading: calls are serialized and
  // `done` counts up 1..total with no duplicates or gaps.
  uint32_t last = 0;
  ASSERT_TRUE(PrecomputeVisibility(*city, *grid, popt,
                                   [&](uint32_t done, uint32_t total) {
                                     EXPECT_EQ(done, last + 1);
                                     EXPECT_EQ(total, 16u);
                                     last = done;
                                   })
                  .ok());
  EXPECT_EQ(last, 16u);
}

TEST(CellVisibilityTest, DovOfLookup) {
  CellVisibility cell;
  cell.ids = {3, 7, 9};
  cell.dov = {0.1f, 0.2f, 0.3f};
  EXPECT_FLOAT_EQ(cell.DovOf(3), 0.1f);
  EXPECT_FLOAT_EQ(cell.DovOf(9), 0.3f);
  EXPECT_FLOAT_EQ(cell.DovOf(4), 0.0f);
  EXPECT_FLOAT_EQ(cell.DovOf(100), 0.0f);
}

}  // namespace
}  // namespace hdov
