#include "telemetry/trace_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "telemetry/flight_recorder.h"

namespace hdov {
namespace {

using telemetry::BeginStageAccounting;
using telemetry::CurrentTraceContext;
using telemetry::FinishStageAccounting;
using telemetry::FlightNowNs;
using telemetry::kNumTraceStages;
using telemetry::SessionTraceScope;
using telemetry::StageBreakdown;
using telemetry::StageTraceScope;
using telemetry::TraceStage;
using telemetry::TraceStageName;

// Busy-waits so the active stage accrues at least `ns` of wall time
// (sleeping would work too, but spinning keeps the charged interval
// tightly under the test's control).
void SpinFor(uint64_t ns) {
  const uint64_t until = FlightNowNs() + ns;
  while (FlightNowNs() < until) {
  }
}

TEST(TraceContextTest, DefaultIsUnattributed) {
  const telemetry::TraceContext& ctx = CurrentTraceContext();
  EXPECT_EQ(ctx.session, 0u);
  EXPECT_EQ(ctx.frame, 0u);
  EXPECT_EQ(ctx.stage, TraceStage::kNone);
}

TEST(TraceContextTest, StageNamesAreStable) {
  EXPECT_EQ(TraceStageName(TraceStage::kNone), "none");
  EXPECT_EQ(TraceStageName(TraceStage::kSearch), "search");
  EXPECT_EQ(TraceStageName(TraceStage::kFetch), "fetch");
  EXPECT_EQ(TraceStageName(TraceStage::kRender), "render");
  EXPECT_EQ(TraceStageName(TraceStage::kPrefetch), "prefetch");
}

TEST(TraceContextTest, SessionScopesNestAndRestore) {
  {
    SessionTraceScope outer(7, 1);
    EXPECT_EQ(CurrentTraceContext().session, 7u);
    EXPECT_EQ(CurrentTraceContext().frame, 1u);
    {
      // A worker switching between batched sessions nests scopes.
      SessionTraceScope inner(9, 2);
      EXPECT_EQ(CurrentTraceContext().session, 9u);
      EXPECT_EQ(CurrentTraceContext().frame, 2u);
    }
    EXPECT_EQ(CurrentTraceContext().session, 7u);
    EXPECT_EQ(CurrentTraceContext().frame, 1u);
  }
  EXPECT_EQ(CurrentTraceContext().session, 0u);
  EXPECT_EQ(CurrentTraceContext().frame, 0u);
}

TEST(TraceContextTest, StageScopesNestAndRestore) {
  {
    StageTraceScope outer(TraceStage::kPrefetch);
    EXPECT_EQ(CurrentTraceContext().stage, TraceStage::kPrefetch);
    {
      StageTraceScope inner(TraceStage::kSearch);
      EXPECT_EQ(CurrentTraceContext().stage, TraceStage::kSearch);
    }
    EXPECT_EQ(CurrentTraceContext().stage, TraceStage::kPrefetch);
  }
  EXPECT_EQ(CurrentTraceContext().stage, TraceStage::kNone);
}

TEST(TraceContextTest, StageAccountingChargesActiveStage) {
  BeginStageAccounting();
  {
    StageTraceScope stage(TraceStage::kSearch);
    SpinFor(2'000'000);  // 2 ms
  }
  {
    StageTraceScope stage(TraceStage::kFetch);
    SpinFor(1'000'000);  // 1 ms
  }
  const StageBreakdown b = FinishStageAccounting();
  EXPECT_GE(b.ns[static_cast<size_t>(TraceStage::kSearch)], 2'000'000u);
  EXPECT_GE(b.ns[static_cast<size_t>(TraceStage::kFetch)], 1'000'000u);
  EXPECT_EQ(b.ns[static_cast<size_t>(TraceStage::kRender)], 0u);
  // Every interval since Begin is charged somewhere, so the breakdown
  // totals at least the stage time (kNone absorbs the rest).
  EXPECT_GE(b.total_ns(), 3'000'000u);
}

TEST(TraceContextTest, NestedStagesChargeExclusiveTime) {
  BeginStageAccounting();
  const uint64_t scope_start = FlightNowNs();
  {
    StageTraceScope outer(TraceStage::kPrefetch);
    SpinFor(1'000'000);
    {
      // The traversal under prefetch charges kSearch, not kPrefetch:
      // per-stage numbers are self times.
      StageTraceScope inner(TraceStage::kSearch);
      SpinFor(1'000'000);
    }
    SpinFor(500'000);
  }
  const uint64_t scope_ns = FlightNowNs() - scope_start;
  const StageBreakdown b = FinishStageAccounting();
  const uint64_t prefetch = b.ns[static_cast<size_t>(TraceStage::kPrefetch)];
  const uint64_t search = b.ns[static_cast<size_t>(TraceStage::kSearch)];
  EXPECT_GE(prefetch, 1'500'000u);
  EXPECT_GE(search, 1'000'000u);
  // Exclusive accounting: the inner spin is not double-charged, so the two
  // stages together fit in the scope's wall time, measured on the same
  // clock (a preemption stretches both sides alike). Double-charging
  // would exceed it by the inner spin's full millisecond.
  EXPECT_LE(prefetch + search, scope_ns);
}

TEST(TraceContextTest, BeginResetsPriorAccumulation) {
  BeginStageAccounting();
  {
    StageTraceScope stage(TraceStage::kRender);
    SpinFor(1'000'000);
  }
  BeginStageAccounting();  // Discards the render charge above.
  const StageBreakdown b = FinishStageAccounting();
  EXPECT_EQ(b.ns[static_cast<size_t>(TraceStage::kRender)], 0u);
}

TEST(TraceContextTest, ContextIsThreadLocal) {
  SessionTraceScope scope(5, 11);
  StageTraceScope stage(TraceStage::kFetch);
  uint16_t observed_session = 0xffff;
  TraceStage observed_stage = TraceStage::kRender;
  std::thread other([&] {
    // A fresh thread starts unattributed regardless of the spawner.
    observed_session = CurrentTraceContext().session;
    observed_stage = CurrentTraceContext().stage;
    SessionTraceScope own(6, 0);
    EXPECT_EQ(CurrentTraceContext().session, 6u);
  });
  other.join();
  EXPECT_EQ(observed_session, 0u);
  EXPECT_EQ(observed_stage, TraceStage::kNone);
  // The other thread's scopes never touched this thread's context.
  EXPECT_EQ(CurrentTraceContext().session, 5u);
  EXPECT_EQ(CurrentTraceContext().stage, TraceStage::kFetch);
}

TEST(TraceContextTest, ConcurrentAccountingIsIndependent) {
  // TSan exercise: many threads run full frame accounting loops at once,
  // all stamping events into the shared global recorder.
  constexpr size_t kThreads = 4;
  constexpr size_t kFrames = 200;
  std::atomic<size_t> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &bad] {
      const uint16_t session = static_cast<uint16_t>(t + 1);
      for (size_t f = 0; f < kFrames; ++f) {
        SessionTraceScope trace(session, f);
        BeginStageAccounting();
        {
          StageTraceScope stage(TraceStage::kSearch);
          telemetry::GlobalFlightRecorder().Record(
              telemetry::FlightEventType::kPoolHit, 0, f, 0);
        }
        const StageBreakdown b = FinishStageAccounting();
        if (CurrentTraceContext().session != session ||
            b.ns[static_cast<size_t>(TraceStage::kFetch)] != 0) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0u);
}

}  // namespace
}  // namespace hdov
