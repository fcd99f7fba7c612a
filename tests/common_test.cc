#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace hdov {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing page");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing page");
  EXPECT_EQ(s.ToString(), "NotFound: missing page");
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::Corruption("bad bytes");
  Status copy = s;
  EXPECT_TRUE(copy.IsCorruption());
  EXPECT_EQ(copy.message(), "bad bytes");
  // The original is unaffected.
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.message(), "bad bytes");
}

TEST(StatusTest, CopyAssignOverwrites) {
  Status a = Status::IoError("disk gone");
  Status b;
  b = a;
  EXPECT_TRUE(b.IsIoError());
  b = Status::OK();
  EXPECT_TRUE(b.ok());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kCorruption, StatusCode::kIoError, StatusCode::kOutOfRange,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kInternal}) {
    EXPECT_FALSE(StatusCodeName(code).empty());
    EXPECT_NE(StatusCodeName(code), "Unknown");
  }
}

Status FailIfNegative(int x) {
  if (x < 0) {
    return Status::InvalidArgument("negative");
  }
  return Status::OK();
}

Status Chained(int x) {
  HDOV_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(Chained(1).ok());
  EXPECT_TRUE(Chained(-1).IsInvalidArgument());
}

Result<int> ParsePositive(int x) {
  if (x <= 0) {
    return Status::OutOfRange("not positive");
  }
  return x;
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = ParsePositive(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  EXPECT_EQ(ok.value_or(-1), 5);

  Result<int> err = ParsePositive(0);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(err.value_or(-1), -1);
}

Result<int> DoubledOrFail(int x) {
  HDOV_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> ok = DoubledOrFail(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_FALSE(DoubledOrFail(-3).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> taken = std::move(r).value();
  EXPECT_EQ(*taken, 7);
}

TEST(CodingTest, Fixed32RoundTrip) {
  std::string buf;
  EncodeFixed32(&buf, 0);
  EncodeFixed32(&buf, 1);
  EncodeFixed32(&buf, 0xdeadbeef);
  EncodeFixed32(&buf, 0xffffffffu);
  Decoder d(buf);
  uint32_t v = 0;
  ASSERT_TRUE(d.DecodeFixed32(&v).ok());
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(d.DecodeFixed32(&v).ok());
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(d.DecodeFixed32(&v).ok());
  EXPECT_EQ(v, 0xdeadbeefu);
  ASSERT_TRUE(d.DecodeFixed32(&v).ok());
  EXPECT_EQ(v, 0xffffffffu);
  EXPECT_EQ(d.remaining(), 0u);
}

TEST(CodingTest, Fixed64AndFloatRoundTrip) {
  std::string buf;
  EncodeFixed64(&buf, 0x0123456789abcdefULL);
  EncodeFloat(&buf, 3.5f);
  EncodeDouble(&buf, -2.25);
  Decoder d(buf);
  uint64_t v64 = 0;
  float f = 0;
  double dd = 0;
  ASSERT_TRUE(d.DecodeFixed64(&v64).ok());
  EXPECT_EQ(v64, 0x0123456789abcdefULL);
  ASSERT_TRUE(d.DecodeFloat(&f).ok());
  EXPECT_EQ(f, 3.5f);
  ASSERT_TRUE(d.DecodeDouble(&dd).ok());
  EXPECT_EQ(dd, -2.25);
}

TEST(CodingTest, DecodePastEndIsCorruption) {
  std::string buf;
  EncodeFixed32(&buf, 7);
  Decoder d(buf);
  uint64_t v = 0;
  EXPECT_TRUE(d.DecodeFixed64(&v).IsCorruption());
}

TEST(CodingTest, SkipBoundsChecked) {
  Decoder d("abcd");
  EXPECT_TRUE(d.Skip(4).ok());
  EXPECT_TRUE(d.Skip(1).IsCorruption());
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    int v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, BernoulliApproximatesP) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.25)) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(SimClockTest, Advances) {
  SimClock clock;
  EXPECT_EQ(clock.NowMicros(), 0u);
  clock.AdvanceMicros(1500);
  EXPECT_EQ(clock.NowMicros(), 1500u);
  clock.AdvanceMillis(2.5);
  EXPECT_EQ(clock.NowMicros(), 4000u);
  EXPECT_DOUBLE_EQ(clock.NowMillis(), 4.0);
  clock.Reset();
  EXPECT_EQ(clock.NowMicros(), 0u);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossPhases) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int phase = 0; phase < 3; ++phase) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(ran.load(), (phase + 1) * 10);
  }
}

TEST(ThreadPoolTest, InlineModeSpawnsNoThreads) {
  for (size_t n : {size_t{0}, size_t{1}}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), 0u);
    EXPECT_EQ(pool.num_slots(), 1u);
    // Submit must run the task before returning (same thread).
    const std::thread::id caller = std::this_thread::get_id();
    bool ran = false;
    pool.Submit([&] {
      ran = true;
      EXPECT_EQ(std::this_thread::get_id(), caller);
    });
    EXPECT_TRUE(ran);
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&hits](size_t /*slot*/, size_t i) {
    hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForSlotsAreExclusiveAndInRange) {
  ThreadPool pool(3);
  const size_t slots = pool.num_slots();
  ASSERT_EQ(slots, 4u);
  // One non-atomic counter per slot: exclusive slot ownership means no
  // data race here (TSan would flag a violation).
  std::vector<uint64_t> per_slot(slots, 0);
  pool.ParallelFor(5000, [&](size_t slot, size_t /*i*/) {
    ASSERT_LT(slot, slots);
    ++per_slot[slot];
  });
  EXPECT_EQ(std::accumulate(per_slot.begin(), per_slot.end(), uint64_t{0}),
            5000u);
}

TEST(ThreadPoolTest, ParallelForHandlesFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> ran{0};
  pool.ParallelFor(3, [&ran](size_t, size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
  pool.ParallelFor(0, [](size_t, size_t) { FAIL() << "n = 0 must not run"; });
}

TEST(ThreadPoolTest, ResolveThreadsMapsZeroToHardware) {
  EXPECT_EQ(ThreadPool::ResolveThreads(3), 3u);
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);
}

}  // namespace
}  // namespace hdov
