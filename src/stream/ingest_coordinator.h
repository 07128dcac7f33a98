#ifndef PROBSYN_STREAM_INGEST_COORDINATOR_H_
#define PROBSYN_STREAM_INGEST_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/dp_kernels.h"
#include "model/value_pdf.h"
#include "stream/streaming_histogram.h"
#include "util/deadline.h"
#include "util/status.h"

namespace probsyn {

class ThreadPool;

/// What Submit does when a stream's bounded queue is full.
enum class IngestBackpressure {
  /// Drain the queue inline (or wait for the active drainer to free
  /// space), then enqueue. Submit never drops or fails on capacity — it
  /// only returns non-OK when the attached ExecContext stops the ingest.
  kBlock,
  /// Fail the Submit with kResourceExhausted and leave the queue
  /// untouched; the caller decides whether to retry, drain, or drop.
  kRejectWithStatus,
  /// Drop the OLDEST queued item to make room and enqueue the new one
  /// (counted in Stats::shed). The builder then sees a stream with a gap:
  /// use only when the synopsis may lag under overload, never when
  /// bit-exact replay matters.
  kShedOldest,
};

/// Stable display name ("block", "reject", "shed-oldest").
const char* IngestBackpressureName(IngestBackpressure policy);

/// Configuration of every stream opened by one IngestCoordinator.
struct IngestOptions {
  /// Bucket budget of each per-stream streaming builder; >= 1.
  std::size_t max_buckets = 8;
  /// Approximation slack of each builder; > 0.
  double epsilon = 0.25;
  /// Bounded capacity of each stream's submission queue (items); >= 1.
  /// Preallocated up front, so steady-state Submit never allocates.
  std::size_t queue_capacity = 4096;
  /// Maximum items one PushBatch call consumes per drain step; >= 1.
  /// Larger blocks amortize better; smaller blocks bound the latency of a
  /// cancellation poll (the drain loop polls between blocks).
  std::size_t drain_batch = 256;
  /// Queue-full policy; see IngestBackpressure.
  IngestBackpressure backpressure = IngestBackpressure::kBlock;
  /// Optional stop signal (deadline and/or cancel tokens) polled by the
  /// drain loops and by blocked Submits; must outlive the coordinator.
  /// Null never stops (the historical unbounded behavior).
  const ExecContext* context = nullptr;
};

/// Fans many independent item streams into per-stream
/// StreamingHistogramBuilders through one shared ThreadPool, with bounded
/// buffering and explicit backpressure between producers and the drain
/// work — the ingest tier in front of the streaming construction path.
///
/// Shape: each OpenStream() gets a preallocated single-ring submission
/// queue, a DpWorkspace lease of its own (chain stores are never shared
/// across streams — the builders' refcounted nodes are not thread-safe
/// across concurrent streams), and a builder configured from
/// IngestOptions. Producers Submit/SubmitBatch items (any thread,
/// serialized per stream); DrainAll() fans the queued backlog out over the
/// pool with one ParallelFor lane per stream; Finish(stream) drains the
/// stream's remainder and extracts its histogram.
///
/// Determinism: a stream's result depends only on the sequence of items
/// submitted to it — never on queue boundaries, drain timing, thread
/// count, or the pool's chunk assignment. This falls out of two
/// guarantees: the queue is strictly FIFO per stream, and
/// StreamingHistogramBuilder::PushBatch gives the same bits however the
/// backlog is split into blocks (pinned in tests/ingest_test.cc across
/// {1, 2, 8}-thread coordinators).
///
/// Thread safety: all public methods are thread-safe. Per-stream FIFO
/// order is the producers' responsibility when several threads submit to
/// ONE stream (the lock serializes them, but arrival order is then
/// scheduler-defined); the intended layout is one producer per stream.
class IngestCoordinator {
 public:
  /// Monotonic event counters across all streams (relaxed atomics — read
  /// them after the producing calls return, e.g. between DrainAll and the
  /// next Submit wave, for exact values).
  struct Stats {
    std::size_t accepted = 0;  ///< Items enqueued successfully.
    std::size_t rejected = 0;  ///< Submits failed by kRejectWithStatus.
    std::size_t shed = 0;      ///< Items dropped by kShedOldest.
    std::size_t batches = 0;   ///< PushBatch blocks fed to builders.
    std::size_t pushed = 0;    ///< Items consumed by builders.
  };

  /// `pool` (nullable) runs DrainAll's per-stream fan-out; null drains
  /// sequentially on the calling thread. `workspaces` (nullable) leases
  /// one DpWorkspace per stream so repeated coordinator generations reuse
  /// warm chain-store capacity; null lets each builder own a private
  /// store. Both must outlive the coordinator; `options` must already be
  /// validated (SynopsisEngine::OpenIngest validates, direct constructions
  /// are PROBSYN_CHECKed).
  IngestCoordinator(const IngestOptions& options, ThreadPool* pool,
                    DpWorkspacePool* workspaces);
  ~IngestCoordinator();

  IngestCoordinator(const IngestCoordinator&) = delete;
  IngestCoordinator& operator=(const IngestCoordinator&) = delete;

  /// Opens a new stream and returns its id (dense, starting at 0). The
  /// queue and builder are allocated here, not on the submit path.
  std::size_t OpenStream();

  /// Number of streams opened so far.
  std::size_t num_streams() const;

  /// Enqueues one item on `stream` (see IngestBackpressure for the
  /// queue-full behavior). Fails with kInvalidArgument on a bad stream id,
  /// kFailedPrecondition after Finish(stream), kResourceExhausted under
  /// kRejectWithStatus on a full queue, and the context's stop status when
  /// a blocked Submit is cancelled or deadlined.
  Status Submit(std::size_t stream, const ValuePdf& item);

  /// Enqueues a block of items in order; equivalent to Submitting each in
  /// sequence (on the first failure the prefix before it stays enqueued
  /// and the error reports the failing offset).
  Status SubmitBatch(std::size_t stream, std::span<const ValuePdf> items);

  /// Drains every stream's queued backlog into its builder, one pool lane
  /// per stream (sequentially without a pool). Returns the first stream's
  /// stop status when the attached context fires mid-drain; already-pushed
  /// items stay pushed (the builders remain valid and consistent).
  Status DrainAll();

  /// Drains the remaining backlog of `stream` and extracts its histogram
  /// (non-destructive: the stream stops accepting Submits, but its result
  /// stays extractable). Fails like Submit on bad ids plus whatever the
  /// builder's Finish reports (e.g. kInvalidArgument on an empty stream).
  StatusOr<StreamingHistogramBuilder::Result> Finish(std::size_t stream);

  /// Counter snapshot (see Stats).
  Stats stats() const;

 private:
  // One stream's state. Queue is a fixed-capacity ring over `buffer`;
  // `draining` is the single-consumer role claim — whoever sets it (a
  // DrainAll lane or a kBlock Submit going inline) owns the builder until
  // clearing it, so builder access needs no second lock.
  struct Stream {
    std::mutex mutex;
    std::condition_variable space_cv;
    std::vector<ValuePdf> buffer;  // capacity == queue_capacity, fixed
    std::size_t head = 0;          // ring read index
    std::size_t size = 0;          // queued item count
    bool draining = false;
    bool finished = false;
    std::optional<DpWorkspacePool::Lease> lease;
    std::unique_ptr<StreamingHistogramBuilder> builder;
    std::vector<ValuePdf> drain_scratch;  // capacity == drain_batch
  };

  // Moves up to drain_batch items out of the ring under the lock into
  // drain_scratch; returns the count (0 = queue empty).
  static std::size_t TakeBlock(Stream& s, std::size_t drain_batch,
                               std::vector<ValuePdf>& out);

  // Drains `s` until its queue is empty or the context stops; caller must
  // NOT hold s.mutex. Claims/releases the draining role itself; returns
  // immediately OK when another thread holds it (that thread is making
  // the progress).
  Status DrainStream(Stream& s);

  IngestOptions options_;
  ThreadPool* pool_;
  DpWorkspacePool* workspaces_;

  mutable std::mutex streams_mutex_;  // guards the streams_ vector shape
  std::vector<std::unique_ptr<Stream>> streams_;

  std::atomic<std::size_t> accepted_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> shed_{0};
  std::atomic<std::size_t> batches_{0};
  std::atomic<std::size_t> pushed_{0};
};

}  // namespace probsyn

#endif  // PROBSYN_STREAM_INGEST_COORDINATOR_H_
