#include "stream/ingest_coordinator.h"

#include <chrono>
#include <string>
#include <utility>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace probsyn {

const char* IngestBackpressureName(IngestBackpressure policy) {
  switch (policy) {
    case IngestBackpressure::kBlock:
      return "block";
    case IngestBackpressure::kRejectWithStatus:
      return "reject";
    case IngestBackpressure::kShedOldest:
      return "shed-oldest";
  }
  return "unknown";
}

IngestCoordinator::IngestCoordinator(const IngestOptions& options,
                                     ThreadPool* pool,
                                     DpWorkspacePool* workspaces)
    : options_(options), pool_(pool), workspaces_(workspaces) {
  PROBSYN_CHECK(options_.max_buckets >= 1);
  PROBSYN_CHECK(options_.epsilon > 0.0);
  PROBSYN_CHECK(options_.queue_capacity >= 1);
  PROBSYN_CHECK(options_.drain_batch >= 1);
}

IngestCoordinator::~IngestCoordinator() = default;

std::size_t IngestCoordinator::OpenStream() {
  auto stream = std::make_unique<Stream>();
  stream->buffer.resize(options_.queue_capacity);
  stream->drain_scratch.reserve(options_.drain_batch);
  StreamChainStore* store = nullptr;
  if (workspaces_ != nullptr) {
    stream->lease.emplace(workspaces_->Acquire());
    store = &stream->lease->get()->stream_chains();
  }
  stream->builder = std::make_unique<StreamingHistogramBuilder>(
      options_.max_buckets, options_.epsilon, store);
  std::lock_guard<std::mutex> lock(streams_mutex_);
  streams_.push_back(std::move(stream));
  return streams_.size() - 1;
}

std::size_t IngestCoordinator::num_streams() const {
  std::lock_guard<std::mutex> lock(streams_mutex_);
  return streams_.size();
}

std::size_t IngestCoordinator::TakeBlock(Stream& s, std::size_t drain_batch,
                                         std::vector<ValuePdf>& out) {
  const std::size_t capacity = s.buffer.size();
  const std::size_t take = s.size < drain_batch ? s.size : drain_batch;
  out.clear();
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(std::move(s.buffer[s.head]));
    s.head = s.head + 1 == capacity ? 0 : s.head + 1;
  }
  s.size -= take;
  return take;
}

Status IngestCoordinator::DrainStream(Stream& s) {
  std::unique_lock<std::mutex> lock(s.mutex);
  if (s.draining) return Status::OK();  // that thread is making progress
  s.draining = true;
  PollGate gate(1);  // between-blocks cadence; each block is >= 1 batch
  Status result = Status::OK();
  for (;;) {
    if (gate.ShouldStop(options_.context)) {
      result = options_.context->StopStatus(
          "ingest", "item", pushed_.load(std::memory_order_relaxed),
          accepted_.load(std::memory_order_relaxed));
      break;
    }
    const std::size_t taken =
        TakeBlock(s, options_.drain_batch, s.drain_scratch);
    if (taken == 0) break;
    s.space_cv.notify_all();
    lock.unlock();
    s.builder->PushBatch(
        std::span<const ValuePdf>(s.drain_scratch.data(), taken));
    batches_.fetch_add(1, std::memory_order_relaxed);
    pushed_.fetch_add(taken, std::memory_order_relaxed);
    lock.lock();
  }
  s.draining = false;
  s.space_cv.notify_all();  // wake submitters waiting on the role, too
  return result;
}

Status IngestCoordinator::Submit(std::size_t stream_id,
                                 const ValuePdf& item) {
  Stream* s = nullptr;
  {
    std::lock_guard<std::mutex> lock(streams_mutex_);
    if (stream_id >= streams_.size()) {
      return Status::InvalidArgument("Submit: unknown stream id " +
                                     std::to_string(stream_id));
    }
    s = streams_[stream_id].get();
  }
  std::unique_lock<std::mutex> lock(s->mutex);
  if (s->finished) {
    return Status::FailedPrecondition("Submit: stream " +
                                      std::to_string(stream_id) +
                                      " is finished");
  }
  const std::size_t capacity = s->buffer.size();
  while (s->size == capacity) {
    switch (options_.backpressure) {
      case IngestBackpressure::kRejectWithStatus:
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return Status::ResourceExhausted(
            "Submit: stream " + std::to_string(stream_id) +
            " queue full (" + std::to_string(capacity) + " items)");
      case IngestBackpressure::kShedOldest:
        s->head = s->head + 1 == capacity ? 0 : s->head + 1;
        --s->size;
        shed_.fetch_add(1, std::memory_order_relaxed);
        break;
      case IngestBackpressure::kBlock: {
        if (StopRequested(options_.context)) {
          return options_.context->StopStatus(
              "ingest-submit", "item",
              pushed_.load(std::memory_order_relaxed),
              accepted_.load(std::memory_order_relaxed));
        }
        if (!s->draining) {
          // No active drainer: push one block through inline so a
          // single-threaded producer can never deadlock against itself.
          s->draining = true;
          const std::size_t taken =
              TakeBlock(*s, options_.drain_batch, s->drain_scratch);
          lock.unlock();
          s->builder->PushBatch(
              std::span<const ValuePdf>(s->drain_scratch.data(), taken));
          batches_.fetch_add(1, std::memory_order_relaxed);
          pushed_.fetch_add(taken, std::memory_order_relaxed);
          lock.lock();
          s->draining = false;
          s->space_cv.notify_all();
        } else {
          s->space_cv.wait_for(lock, std::chrono::milliseconds(1));
        }
        break;
      }
    }
  }
  s->buffer[(s->head + s->size) % capacity] = item;
  ++s->size;
  accepted_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status IngestCoordinator::SubmitBatch(std::size_t stream_id,
                                      std::span<const ValuePdf> items) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    Status status = Submit(stream_id, items[i]);
    if (!status.ok()) {
      return Status(status.code(), "SubmitBatch item " + std::to_string(i) +
                                       "/" + std::to_string(items.size()) +
                                       ": " + status.message());
    }
  }
  return Status::OK();
}

Status IngestCoordinator::DrainAll() {
  std::vector<Stream*> snapshot;
  {
    std::lock_guard<std::mutex> lock(streams_mutex_);
    snapshot.reserve(streams_.size());
    for (const auto& s : streams_) snapshot.push_back(s.get());
  }
  std::vector<Status> statuses(snapshot.size());
  if (pool_ != nullptr && snapshot.size() > 1) {
    Status fan_out = pool_->ParallelFor(
        0, snapshot.size(), [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            statuses[i] = DrainStream(*snapshot[i]);
          }
        });
    if (!fan_out.ok()) return fan_out;
  } else {
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      statuses[i] = DrainStream(*snapshot[i]);
    }
  }
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

StatusOr<StreamingHistogramBuilder::Result> IngestCoordinator::Finish(
    std::size_t stream_id) {
  Stream* s = nullptr;
  {
    std::lock_guard<std::mutex> lock(streams_mutex_);
    if (stream_id >= streams_.size()) {
      return Status::InvalidArgument("Finish: unknown stream id " +
                                     std::to_string(stream_id));
    }
    s = streams_[stream_id].get();
  }
  for (;;) {
    Status status = DrainStream(*s);
    if (!status.ok()) return status;
    std::unique_lock<std::mutex> lock(s->mutex);
    if (!s->draining && s->size == 0) {
      s->finished = true;
      break;
    }
    // Another thread holds the drain role; wait for it and retry (it may
    // exit early on a stop request, leaving items behind).
    s->space_cv.wait_for(lock, std::chrono::milliseconds(1));
  }
  return s->builder->Finish();
}

IngestCoordinator::Stats IngestCoordinator::stats() const {
  Stats out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.pushed = pushed_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace probsyn
