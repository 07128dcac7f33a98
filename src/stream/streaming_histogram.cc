#include "stream/streaming_histogram.h"

#include <algorithm>
#include <cmath>

#include "core/dp_kernels.h"
#include "util/logging.h"
#include "util/math.h"

namespace probsyn {

StreamingHistogramBuilder::StreamingHistogramBuilder(
    std::size_t max_buckets, double epsilon, StreamChainStore* chain_store)
    : max_buckets_(std::max<std::size_t>(1, max_buckets)),
      delta_(std::min(
          0.5, std::max(epsilon, 1e-9) / (2.0 * static_cast<double>(
                                                    std::max<std::size_t>(
                                                        1, max_buckets))))),
      owned_chain_store_(chain_store == nullptr
                             ? std::make_unique<StreamChainStore>()
                             : nullptr),
      chain_store_(chain_store == nullptr ? owned_chain_store_.get()
                                          : chain_store) {
  layers_.resize(max_buckets_);
}

StreamingHistogramBuilder::~StreamingHistogramBuilder() {
  // Hand every owned chain reference back so an injected store's live-node
  // count returns to its pre-builder baseline (leak-tested).
  for (Layer& layer : layers_) {
    for (Breakpoint& breakpoint : layer.committed) {
      chain_store_->Release(breakpoint.chain);
    }
    if (layer.has_pending) chain_store_->Release(layer.pending.chain);
  }
}

double StreamingHistogramBuilder::BucketCost(const Snapshot& from,
                                             const Snapshot& to) {
  PROBSYN_DCHECK(to.position > from.position);
  double width = static_cast<double>(to.position - from.position);
  double mean = to.sum_mean - from.sum_mean;
  double second = to.sum_second - from.sum_second;
  return ClampTinyNegative(second - mean * mean / width, 1e-6);
}

double StreamingHistogramBuilder::Representative(const Snapshot& from,
                                                 const Snapshot& to) {
  double width = static_cast<double>(to.position - from.position);
  return (to.sum_mean - from.sum_mean) / width;
}

void StreamingHistogramBuilder::PushBatch(std::span<const ValuePdf> pdfs) {
  std::size_t offset = 0;
  while (offset < pdfs.size()) {
    const std::size_t block =
        std::min<std::size_t>(kBatchWidth, pdfs.size() - offset);
    PushBatchBlock(pdfs.subspan(offset, block));
    offset += block;
  }
}

// Layer-major replay of kk <= kBatchWidth sequential pushes. The
// sequential recurrence interleaves per-push scans and commits; here each
// layer is processed ONCE for the whole block — scan all kk evaluations
// of layer L (8 pushes per SIMD register), then replay its kk commit
// steps — which is legal because layer L's evaluations depend only on
// layer L-1's state, already fully replayed. Each evaluation resolves the
// textbook tie-break (the first committed candidate attaining the
// minimum; the pending and inherit candidates win only strictly, in that
// order) and records its winner's boundary chain as ONE persistent-chain
// operation — Extend() on the winner's chain (hash-consed: a re-chosen
// winner resolves to the already-live node) or an AddRef() when
// inheritance wins — so chain work is O(1) per layer per push regardless
// of chain length, where the textbook scan copies the full winner chain.
// Three bookkeeping devices keep the replay bit-identical to the
// sequential order:
//
//  * a visibility timeline per layer (batch_visible_): a candidate
//    committed while replaying push k' becomes visible only to pushes
//    k > k', so the batched sweep covers the pre-group prefix and a
//    scalar tail covers the mid-block arrivals each push would have seen;
//  * the pending-candidate timeline: at push k, layer L-1's pending is
//    its push-(k-1) evaluation — a row of this block's scratch — except
//    at k = 0, where it is the pre-block pending, captured (pend0) with
//    the pending's chain reference, held to block end, when the commit
//    pass rotates the pending slot;
//  * chain refcount discipline: every eval row owns one reference to its
//    chain for the whole block (the next layer extends or inherits from
//    it), committed breakpoints take their own references, the rotated
//    pending takes over the final row's, and the block-end release pass
//    drops the rest — leaving the exact live-node set the textbook
//    recurrence produces (asserted by the differential tests). A one-item
//    block thus does one textbook item's chain work: its extensions and
//    one release of the replaced pending per layer.
void StreamingHistogramBuilder::PushBatchBlock(
    std::span<const ValuePdf> pdfs) {
  constexpr StreamChainStore::Ref kNil = StreamChainStore::kNil;
  constexpr std::int64_t kPendingWins = -2;
  const std::size_t kk = pdfs.size();
  PROBSYN_DCHECK(kk >= 1 && kk <= kBatchWidth);

  // Extend the running prefix and the reciprocal table once per block.
  batch_snapshots_.resize(kk);
  for (std::size_t k = 0; k < kk; ++k) {
    ++count_;
    running_.position = count_;
    running_.sum_mean += pdfs[k].Mean();
    running_.sum_second += pdfs[k].SecondMoment();
    batch_snapshots_[k] = running_;
  }
  if (recips_.empty()) recips_.push_back(0.0);  // index 0: width is never 0
  while (recips_.size() <= count_) {
    recips_.push_back(1.0 / static_cast<double>(recips_.size()));
  }

  const std::size_t stride = kBatchWidth;
  batch_errors_.resize(max_buckets_ * stride);
  batch_chains_.resize(max_buckets_ * stride, kNil);
  batch_visible_.resize(max_buckets_ * (stride + 1));
  batch_pend0_at_.resize(max_buckets_);
  batch_pend0_error_.resize(max_buckets_);
  batch_pend0_chain_.resize(max_buckets_, kNil);
  batch_pend0_has_.resize(max_buckets_);

  const Snapshot origin;  // zero state at position 0
  for (std::size_t L = 0; L < max_buckets_; ++L) {
    double* err_row = batch_errors_.data() + L * stride;
    StreamChainStore::Ref* chain_row = batch_chains_.data() + L * stride;

    // --- Scan pass: evaluate layer L at every push of the block. ------
    if (L == 0) {
      for (std::size_t k = 0; k < kk; ++k) {
        err_row[k] = BucketCost(origin, batch_snapshots_[k]);
        chain_row[k] = kNil;  // the one-bucket solution has no boundaries
      }
    } else {
      const Layer& prev = layers_[L - 1];
      const double* prev_err_row = batch_errors_.data() + (L - 1) * stride;
      const StreamChainStore::Ref* prev_chain_row =
          batch_chains_.data() + (L - 1) * stride;
      const std::uint32_t* prev_vis =
          batch_visible_.data() + (L - 1) * (stride + 1);
      candidate_values_.resize(
          std::max(candidate_values_.size(), prev.cand_error.size()));
      for (std::size_t k0 = 0; k0 < kk; k0 += 8) {
        const std::size_t group = std::min<std::size_t>(8, kk - k0);
        const std::size_t visible0 = prev_vis[k0];
        double total_mean[8];
        double total_second[8];
        double best_value[8];
        std::int64_t best_arg[8];
        for (std::size_t j = 0; j < group; ++j) {
          total_mean[j] = batch_snapshots_[k0 + j].sum_mean;
          total_second[j] = batch_snapshots_[k0 + j].sum_second;
        }
        SimdStreamingBatchSweep(
            prev.cand_error.data(), prev.cand_sum_mean.data(),
            prev.cand_sum_second.data(), prev.cand_position.data(),
            prev.cand_neg_position.data(), visible0, total_mean,
            total_second, batch_snapshots_[k0].position, recips_.data(),
            group, best_value, best_arg, candidate_values_.data());
        for (std::size_t j = 0; j < group; ++j) {
          const std::size_t k = k0 + j;
          const Snapshot& s = batch_snapshots_[k];
          double best_error = best_value[j];
          std::int64_t winner = best_arg[j];
          // Scalar tail: candidates committed DURING the block become
          // visible push by push. Strict < keeps the earliest index on
          // ties, exactly like the full first-index-of-minimum scan.
          const double count = static_cast<double>(s.position);
          for (std::size_t i = visible0; i < prev_vis[k]; ++i) {
            const double width = count - prev.cand_position[i];
            const double mean = s.sum_mean - prev.cand_sum_mean[i];
            const double second = s.sum_second - prev.cand_sum_second[i];
            double cost = second - mean * mean / width;
            cost = (cost < 0.0 && cost > -1e-6) ? 0.0 : cost;
            const double v = prev.cand_error[i] + cost;
            if (v < best_error) {
              best_error = v;
              winner = static_cast<std::int64_t>(i);
            }
          }
          // Layer L-1's pending as push k saw it (wins strictly, after
          // the committed scan — the sequential candidate order).
          bool pending_has;
          Snapshot pending_at;
          double pending_error = 0.0;
          StreamChainStore::Ref pending_chain = kNil;
          if (k == 0) {
            pending_has = batch_pend0_has_[L - 1] != 0;
            pending_at = batch_pend0_at_[L - 1];
            pending_error = batch_pend0_error_[L - 1];
            pending_chain = batch_pend0_chain_[L - 1];
          } else {
            pending_has = true;
            pending_at = batch_snapshots_[k - 1];
            pending_error = prev_err_row[k - 1];
            pending_chain = prev_chain_row[k - 1];
          }
          if (pending_has && pending_at.position < s.position) {
            const double v = pending_error + BucketCost(pending_at, s);
            if (v < best_error) {
              best_error = v;
              winner = kPendingWins;
            }
          }
          // "At most b" inheritance keeps layers monotone; it shares the
          // inherited evaluation's chain outright (one refcount bump).
          if (prev_err_row[k] < best_error) {
            err_row[k] = prev_err_row[k];
            StreamChainStore::Ref chain = prev_chain_row[k];
            if (chain != kNil) chain_store_->AddRef(chain);
            chain_row[k] = chain;
            continue;
          }
          err_row[k] = best_error;
          if (winner >= 0) {
            const Breakpoint& won =
                prev.committed[static_cast<std::size_t>(winner)];
            chain_row[k] =
                chain_store_->Extend(won.chain, won.at.sum_mean,
                                     won.at.sum_second, won.at.position);
          } else if (winner == kPendingWins) {
            chain_row[k] = chain_store_->Extend(
                pending_chain, pending_at.sum_mean, pending_at.sum_second,
                pending_at.position);
          } else {
            chain_row[k] = kNil;  // no usable candidate (tiny first block)
          }
        }
      }
    }

    // --- Commit pass: replay layer L's kk last-position-of-class steps.
    Layer& layer = layers_[L];
    std::uint32_t* vis_row = batch_visible_.data() + L * (stride + 1);
    // pend0 capture: hold the pre-block pending (and its chain reference)
    // past this pass's pending rotation — the NEXT layer's k = 0 scan
    // still needs it as a candidate.
    batch_pend0_has_[L] = layer.has_pending ? 1 : 0;
    batch_pend0_at_[L] = layer.pending.at;
    batch_pend0_error_[L] = layer.pending.error;
    batch_pend0_chain_[L] = layer.has_pending ? layer.pending.chain : kNil;
    vis_row[0] = static_cast<std::uint32_t>(layer.committed.size());
    for (std::size_t k = 0; k < kk; ++k) {
      bool pending_has;
      const Snapshot* pending_at;
      double pending_error;
      StreamChainStore::Ref pending_chain;
      if (k == 0) {
        pending_has = batch_pend0_has_[L] != 0;
        pending_at = &batch_pend0_at_[L];
        pending_error = batch_pend0_error_[L];
        pending_chain = batch_pend0_chain_[L];
      } else {
        pending_has = true;
        pending_at = &batch_snapshots_[k - 1];
        pending_error = err_row[k - 1];
        pending_chain = chain_row[k - 1];
      }
      const double error = err_row[k];
      const bool class_overflow =
          pending_has && (error > (1.0 + delta_) * layer.class_base ||
                          (layer.class_base == 0.0 && error > 0.0));
      if (class_overflow) {
        Breakpoint committed;
        committed.at = *pending_at;
        committed.error = pending_error;
        if (pending_chain != kNil) chain_store_->AddRef(pending_chain);
        committed.chain = pending_chain;
        layer.committed.push_back(std::move(committed));
        layer.cand_error.push_back(pending_error);
        layer.cand_sum_mean.push_back(pending_at->sum_mean);
        layer.cand_sum_second.push_back(pending_at->sum_second);
        layer.cand_position.push_back(
            static_cast<double>(pending_at->position));
        layer.cand_neg_position.push_back(
            -static_cast<std::int64_t>(pending_at->position));
        layer.class_base = error;
      }
      if (!pending_has) layer.class_base = error;
      vis_row[k + 1] = static_cast<std::uint32_t>(layer.committed.size());
    }
    // Rotate the pending slot to the final push's evaluation: its chain
    // reference moves from the row (which the next layer still reads) to
    // the pending; the old pending's moved to pend0 above.
    layer.pending.at = batch_snapshots_[kk - 1];
    layer.pending.error = err_row[kk - 1];
    layer.pending.chain = chain_row[kk - 1];
    layer.has_pending = true;
  }

  // Drop the block's transient references (all but the final row's, now
  // the pending's); what remains live is exactly what the textbook
  // recurrence leaves live.
  for (std::size_t L = 0; L < max_buckets_; ++L) {
    StreamChainStore::Ref* chain_row = batch_chains_.data() + L * stride;
    for (std::size_t k = 0; k + 1 < kk; ++k) {
      chain_store_->Release(chain_row[k]);
      chain_row[k] = kNil;
    }
    chain_row[kk - 1] = kNil;
    chain_store_->Release(batch_pend0_chain_[L]);
    batch_pend0_chain_[L] = kNil;
  }
  // Committed counts and pending flags are monotone within a block, so
  // the block-end total equals the block's per-push maximum — the same
  // peak the sequential loop tracks push by push.
  peak_breakpoints_ = std::max(peak_breakpoints_, breakpoints());
}

std::size_t StreamingHistogramBuilder::breakpoints() const {
  std::size_t total = 0;
  for (const Layer& layer : layers_) {
    total += layer.committed.size() + (layer.has_pending ? 1 : 0);
  }
  return total;
}

StatusOr<StreamingHistogramBuilder::Result> StreamingHistogramBuilder::Finish()
    const {
  if (count_ == 0) return Status::FailedPrecondition("empty stream");
  const Layer& top = layers_[max_buckets_ - 1];
  PROBSYN_CHECK(top.has_pending);
  // The top layer's pending is exactly E_B at the final position, with its
  // boundary chain.
  const Breakpoint& final_state = top.pending;

  std::vector<HistogramBucket> buckets;
  std::vector<Snapshot> cuts;
  // One parent walk recovers the boundaries newest-first; reversing
  // restores stream order — the only O(chain) step, paid once per Finish
  // instead of once per item.
  for (StreamChainStore::Ref ref = final_state.chain;
       ref != StreamChainStore::kNil; ref = chain_store_->parent(ref)) {
    cuts.push_back({chain_store_->sum_mean(ref),
                    chain_store_->sum_second(ref),
                    chain_store_->position(ref)});
  }
  std::reverse(cuts.begin(), cuts.end());
  cuts.push_back(running_);
  Snapshot prev;  // origin
  double total = 0.0;
  for (const Snapshot& cut : cuts) {
    PROBSYN_CHECK(cut.position > prev.position);
    HistogramBucket bucket;
    bucket.start = prev.position;
    bucket.end = cut.position - 1;
    bucket.representative = Representative(prev, cut);
    total += BucketCost(prev, cut);
    buckets.push_back(bucket);
    prev = cut;
  }
  // Moments that overflow (or non-finite input) poison the cost; never
  // report such a histogram as a successful build.
  if (!std::isfinite(total)) {
    return Status::InvalidArgument("streaming histogram cost is not finite");
  }

  Result result;
  result.histogram = Histogram(std::move(buckets));
  result.cost = total;
  result.peak_breakpoints = peak_breakpoints_;
  PROBSYN_RETURN_IF_ERROR(result.histogram.Validate(count_));
  return result;
}

}  // namespace probsyn
