// Frame loop: plays a recorded session back on a walkthrough system and
// aggregates the paper's metrics — average frame time, frame-time variance
// ("choppiness"), per-query search time and I/O, peak memory.
//
// SessionPlayer is the one place a frame is played: solo playback
// (PlaySession) loops over it, and the walkthrough server's scheduler
// calls its PlayNext from a worker task. Both therefore trace, account
// stages, feed the slow-frame capture and aggregate through the same code.

#ifndef HDOV_WALKTHROUGH_FRAME_LOOP_H_
#define HDOV_WALKTHROUGH_FRAME_LOOP_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "scene/session.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_context.h"
#include "walkthrough/walkthrough_system.h"

namespace hdov {

struct SessionSummary {
  std::string system_name;
  std::string session_name;
  size_t num_frames = 0;

  double avg_frame_time_ms = 0.0;
  double var_frame_time = 0.0;   // Variance of the per-frame times.
  double avg_query_time_ms = 0.0;
  double avg_io_pages = 0.0;
  double avg_light_io_pages = 0.0;
  // Buffer-pool hit rate over the whole session, as total hits divided by
  // total pool traffic (ratio of sums — a frame with heavy traffic weighs
  // more than an idle one). Sessions start with a cleared pool
  // (BufferPool::Clear drops every entry AND resets the counters), so
  // this — like the pool's telemetry views while the session runs —
  // covers only this session's frames. 0 when the system runs uncached.
  double avg_cache_hit_rate = 0.0;
  uint64_t max_resident_bytes = 0;

  // Per-frame detail (kept when PlaySession is asked to).
  std::vector<FrameResult> frames;
};

// Streaming aggregator turning a sequence of FrameResults into the
// SessionSummary statistics: the same frame sequence produces the same
// (bit-identical) aggregate doubles.
//
// Frame-time variance uses Welford's online algorithm — the textbook
// E[x²]−E[x]² form cancels catastrophically when the mean is large and the
// spread small (a long session of ~1e8 ms frames with ±1 ms jitter rounds
// to variance 0.0). The cache hit rate is a ratio of summed hit/miss
// counts, not a mean of per-frame ratios.
class SessionAccumulator {
 public:
  void Add(const FrameResult& frame) {
    ++count_;
    const double delta = frame.frame_time_ms - mean_time_;
    mean_time_ += delta / static_cast<double>(count_);
    m2_time_ += delta * (frame.frame_time_ms - mean_time_);
    sum_query_ += frame.query_time_ms;
    sum_io_ += static_cast<double>(frame.io_pages);
    sum_light_io_ += static_cast<double>(frame.light_io_pages);
    cache_hits_ += frame.cache_hits;
    cache_misses_ += frame.cache_misses;
    max_resident_bytes_ = std::max(max_resident_bytes_, frame.resident_bytes);
  }

  size_t count() const { return count_; }

  // Fills the aggregate fields of `summary` (leaves the identity fields
  // and the kept frames alone). Requires count() > 0.
  void FinishInto(SessionSummary* summary) const {
    const double n = static_cast<double>(count_);
    summary->num_frames = count_;
    summary->avg_frame_time_ms = mean_time_;
    summary->var_frame_time = m2_time_ / n;  // Population variance.
    summary->avg_query_time_ms = sum_query_ / n;
    summary->avg_io_pages = sum_io_ / n;
    summary->avg_light_io_pages = sum_light_io_ / n;
    const uint64_t traffic = cache_hits_ + cache_misses_;
    summary->avg_cache_hit_rate =
        traffic == 0 ? 0.0
                     : static_cast<double>(cache_hits_) /
                           static_cast<double>(traffic);
    summary->max_resident_bytes = max_resident_bytes_;
  }

 private:
  size_t count_ = 0;
  double mean_time_ = 0.0;
  double m2_time_ = 0.0;  // Welford: sum of squared deviations from the mean.
  double sum_query_ = 0.0;
  double sum_io_ = 0.0;
  double sum_light_io_ = 0.0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t max_resident_bytes_ = 0;
};

// Plays one session's frames in order, one PlayNext() at a time, on a
// system the caller owns (and has reset, if it wants a cold start). Not
// thread-safe: one thread at a time may call into a player, which is
// what the server's one-frame-per-session-per-round rule guarantees.
class SessionPlayer {
 public:
  // PlayNext's enqueue stamp for a frame that never waited in a queue
  // (solo playback): it dispatches at enqueue, so its queue wait is 0.
  static constexpr uint64_t kNoQueue = ~uint64_t{0};

  // `system` and `session` must outlive the player. Reserves the
  // per-frame sample vectors to the session length, so PlayNext does not
  // allocate.
  SessionPlayer(WalkthroughSystem* system, const Session& session);

  bool done() const { return next_ >= session_->frames.size(); }
  // The viewpoint PlayNext renders next. Requires !done().
  const Viewpoint& next_viewpoint() const {
    return session_->frames[next_];
  }

  // Renders the next frame into `frame`. `enqueue_ns` is the FlightNowNs
  // stamp at which a scheduler made the frame runnable: the queue wait is
  // dispatch (stamped here) minus it, floored at 0, and the service time
  // is dispatch to the return of RenderFrame. The frame runs under the
  // session's SessionTraceScope with stage accounting on, feeds the
  // slow-frame capture, and is added to the summary and the samples below.
  // A failed frame is not counted and the player does not advance.
  Status PlayNext(uint64_t enqueue_ns, FrameResult* frame);

  // Identity fields plus the aggregates of the frames played so far.
  // Requires at least one played frame.
  SessionSummary Summary() const;

  // Real latency samples, one per played frame, in ms.
  const std::vector<double>& frame_wall_ms() const { return frame_wall_ms_; }
  const std::vector<double>& frame_queue_wait_ms() const {
    return frame_queue_wait_ms_;
  }
  // Where the frames' service time went, stage by stage (exclusive
  // wall-clock ns; see telemetry/trace_context.h).
  const telemetry::StageBreakdown& stage_totals() const {
    return stage_totals_;
  }

 private:
  WalkthroughSystem* system_;
  const Session* session_;
  uint16_t flight_code_;  // Interned session name, for attribution.
  size_t next_ = 0;
  SessionAccumulator acc_;
  std::vector<double> frame_wall_ms_;
  std::vector<double> frame_queue_wait_ms_;
  telemetry::StageBreakdown stage_totals_;
};

// Writes the five `<prefix>.session.<session name>.*` gauges of a played
// session: avg_frame_time_ms, var_frame_time, avg_io_pages,
// cache_hit_rate and max_resident_bytes.
void PublishSessionGauges(const SessionSummary& summary,
                          telemetry::MetricsRegistry* registry,
                          const std::string& prefix);

struct PlayOptions {
  bool keep_frames = false;
};

// Plays `session` cold (ResetRuntime first) through a SessionPlayer,
// stamping the session name as the telemetry context of its frame
// records, and publishes the session gauges under the system's telemetry
// prefix when telemetry is attached.
Result<SessionSummary> PlaySession(WalkthroughSystem* system,
                                   const Session& session,
                                   const PlayOptions& options = PlayOptions());

}  // namespace hdov

#endif  // HDOV_WALKTHROUGH_FRAME_LOOP_H_
