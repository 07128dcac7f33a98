#include "core/dp_kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "core/abs_oracle.h"
#include "core/max_oracle.h"
#include "core/sse_oracle.h"
#include "core/ssre_oracle.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/thread_pool.h"

// The explicit-SIMD paths target x86-64 with GCC: their bodies are GCC
// vector extensions compiled under `#pragma GCC target` regions. Other
// compilers and platforms run the scalar path, which the dispatch clamps
// to automatically.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define PROBSYN_SIMD_X86 1
#include <immintrin.h>
#endif

namespace probsyn {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// SIMD min-reduction primitives. Every variant of every primitive computes
// the EXACT minimum (floating-point min/max are exact in any accumulation
// order for NaN-free data), so scalar/AVX2/AVX-512 agree bit-for-bit up to
// the sign of a +-0.0 tie — the DP kernels' parity contract never depends
// on the dispatched path. Scalar forms use four independent accumulators
// (breaks the loop-carried minsd chain, gives the auto-vectorizer lanes);
// vector forms use four independent SIMD accumulators for the same reason.
//
// The vector min-reductions finish each remainder through these scalar
// bodies while their vector minimum is still live, so the bodies are
// always inlined: the copy inside a vector function is compiled for its
// ISA, and no call runs baseline SSE code while the upper vector state is
// dirty (on an AVX-512 Xeon that stall measured ~200 ns per call).

[[gnu::always_inline]] inline
double ScalarMinPlusConst(const double* a, std::size_t n, double add) {
  double m0 = kInfinity, m1 = kInfinity, m2 = kInfinity, m3 = kInfinity;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = std::min(m0, a[i] + add);
    m1 = std::min(m1, a[i + 1] + add);
    m2 = std::min(m2, a[i + 2] + add);
    m3 = std::min(m3, a[i + 3] + add);
  }
  double m = std::min(std::min(m0, m1), std::min(m2, m3));
  for (; i < n; ++i) m = std::min(m, a[i] + add);
  return m;
}

[[gnu::always_inline]] inline
double ScalarMinPlusPairs(const double* a, const double* b, std::size_t n) {
  double m0 = kInfinity, m1 = kInfinity, m2 = kInfinity, m3 = kInfinity;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = std::min(m0, a[i] + b[i]);
    m1 = std::min(m1, a[i + 1] + b[i + 1]);
    m2 = std::min(m2, a[i + 2] + b[i + 2]);
    m3 = std::min(m3, a[i + 3] + b[i + 3]);
  }
  double m = std::min(std::min(m0, m1), std::min(m2, m3));
  for (; i < n; ++i) m = std::min(m, a[i] + b[i]);
  return m;
}

[[gnu::always_inline]] inline
double ScalarMinPlusReverse(const double* a, const double* b, std::size_t n) {
  double m0 = kInfinity, m1 = kInfinity, m2 = kInfinity, m3 = kInfinity;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = std::min(m0, a[i] + b[-static_cast<std::ptrdiff_t>(i)]);
    m1 = std::min(m1, a[i + 1] + b[-static_cast<std::ptrdiff_t>(i + 1)]);
    m2 = std::min(m2, a[i + 2] + b[-static_cast<std::ptrdiff_t>(i + 2)]);
    m3 = std::min(m3, a[i + 3] + b[-static_cast<std::ptrdiff_t>(i + 3)]);
  }
  double m = std::min(std::min(m0, m1), std::min(m2, m3));
  for (; i < n; ++i) {
    m = std::min(m, a[i] + b[-static_cast<std::ptrdiff_t>(i)]);
  }
  return m;
}

[[gnu::always_inline]] inline
double ScalarMinMaxPairs(const double* a, const double* b, std::size_t n) {
  double m0 = kInfinity, m1 = kInfinity, m2 = kInfinity, m3 = kInfinity;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = std::min(m0, std::max(a[i], b[i]));
    m1 = std::min(m1, std::max(a[i + 1], b[i + 1]));
    m2 = std::min(m2, std::max(a[i + 2], b[i + 2]));
    m3 = std::min(m3, std::max(a[i + 3], b[i + 3]));
  }
  double m = std::min(std::min(m0, m1), std::min(m2, m3));
  for (; i < n; ++i) m = std::min(m, std::max(a[i], b[i]));
  return m;
}

[[gnu::always_inline]] inline
double ScalarApproxQuadColumn(const double* prev, const double* a,
                              const double* b, const double* c,
                              const double* v, std::size_t n, double a_hi,
                              double b_hi, double c_hi, double v_hi,
                              double* values) {
  double m = kInfinity;
  for (std::size_t i = 0; i < n; ++i) {
    const double sum_c = c_hi - c[i];
    const double sum_b = b_hi - b[i];
    const double sum_a = a_hi - a[i];
    double esos = sum_b * sum_b;
    if (v != nullptr) esos += v_hi - v[i];
    double cost = sum_a - esos / sum_c;
    cost = (cost < 0.0 && cost > -1e-6) ? 0.0 : cost;  // ClampTinyNegative
    if (sum_c <= 0.0) cost = 0.0;
    const double value = prev[i] + cost;
    values[i] = value;
    m = std::min(m, value);
  }
  return m;
}

[[gnu::always_inline]] inline
double ScalarStreamingMergeColumn(const double* error, const double* sum_mean,
                                  const double* sum_second,
                                  const double* position, std::size_t n,
                                  double count, double total_mean,
                                  double total_second, double* values) {
  double m = kInfinity;
  for (std::size_t i = 0; i < n; ++i) {
    const double width = count - position[i];
    const double mean = total_mean - sum_mean[i];
    const double second = total_second - sum_second[i];
    double cost = second - mean * mean / width;
    cost = (cost < 0.0 && cost > -1e-6) ? 0.0 : cost;  // ClampTinyNegative
    const double v =
        position[i] >= count ? kInfinity : error[i] + cost;
    values[i] = v;
    m = std::min(m, v);
  }
  return m;
}

// One push (lane) of the batched streaming sweep with the full reference
// arithmetic — hardware divide, ClampTinyNegative, first-index argmin.
// Defines the semantics every vector path must reproduce; also serves as
// the AVX-512 path's negative-cost re-sweep and every path's fallback for
// a push whose column minimum is not below +infinity. The >= count guard of
// the single-push column is a precondition here (every position < count),
// so it is omitted.
void ScalarStreamingBatchLane(const double* error, const double* sum_mean,
                              const double* sum_second,
                              const double* position, std::size_t n,
                              double count, double total_mean,
                              double total_second, double* best,
                              std::int64_t* best_index) {
  double m = kInfinity;
  std::int64_t arg = -1;
  for (std::size_t i = 0; i < n; ++i) {
    const double width = count - position[i];
    const double mean = total_mean - sum_mean[i];
    const double second = total_second - sum_second[i];
    double cost = second - mean * mean / width;
    cost = (cost < 0.0 && cost > -1e-6) ? 0.0 : cost;  // ClampTinyNegative
    const double v = error[i] + cost;
    if (v < m) {
      m = v;
      arg = static_cast<std::int64_t>(i);
    }
  }
  *best = m;
  *best_index = arg;
}

void ScalarStreamingBatchSweep(const double* error, const double* sum_mean,
                               const double* sum_second,
                               const double* position,
                               const std::int64_t* /*neg_position*/,
                               std::size_t n, const double* total_mean,
                               const double* total_second, std::size_t count0,
                               const double* /*recips*/,
                               std::size_t num_pushes, double* best,
                               std::int64_t* best_index) {
  for (std::size_t j = 0; j < num_pushes; ++j) {
    ScalarStreamingBatchLane(error, sum_mean, sum_second, position, n,
                             static_cast<double>(count0 + j), total_mean[j],
                             total_second[j], &best[j], &best_index[j]);
  }
}

[[gnu::always_inline]] inline
double ScalarMinArray(const double* a, std::size_t n) {
  double m0 = kInfinity, m1 = kInfinity, m2 = kInfinity, m3 = kInfinity;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = std::min(m0, a[i]);
    m1 = std::min(m1, a[i + 1]);
    m2 = std::min(m2, a[i + 2]);
    m3 = std::min(m3, a[i + 3]);
  }
  double m = std::min(std::min(m0, m1), std::min(m2, m3));
  for (; i < n; ++i) m = std::min(m, a[i]);
  return m;
}

#ifdef PROBSYN_SIMD_X86

// The AVX2 and AVX-512 paths are generated from one source: the vector
// bodies in dp_kernels_vector.inc, compiled once per ISA inside a target
// region (kLanes doubles per vector). The region, not a per-file -m flag,
// keeps every other function of the library at the baseline ISA.
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
constexpr std::size_t kLanes = 4;
#include "core/dp_kernels_vector.inc"
}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
namespace avx512 {
constexpr std::size_t kLanes = 8;
#include "core/dp_kernels_vector.inc"
}  // namespace avx512
#pragma GCC pop_options

// GCC's AVX-512 intrinsics (_mm512_min_pd and friends) expand through
// _mm512_undefined_pd(), which trips bogus -W(maybe-)uninitialized
// diagnostics under -O3 (GCC PR105593); silence them for this kernel only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Batched streaming sweep, 8 pushes per zmm register (num_pushes is a
// multiple of 8; SimdStreamingBatchSweep scores the rest). The hot loop is
// division- and clamp-free: lane widths for one candidate are 8
// CONSECUTIVE integers, so their reciprocals are one contiguous unaligned
// load from the caller's table (recips + count0 + g - position[i] — no
// gather), and a Markstein fused step turns y = RN(1/w) into the exactly
// rounded quotient RN(a/w), bit-identical to vdivpd at multiply/fma
// throughput. The ClampTinyNegative branch is replaced by a per-lane
// running MIN of the raw costs: lanes whose column never went negative
// cannot have clamped anywhere, and the (measured-never-taken) negative
// lanes re-sweep through the exact scalar path.
__attribute__((target("avx512f"))) void Avx512StreamingBatchSweep(
    const double* error, const double* sum_mean, const double* sum_second,
    const double* position, const std::int64_t* neg_position, std::size_t n,
    const double* total_mean, const double* total_second, std::size_t count0,
    const double* recips, std::size_t num_pushes, double* best,
    std::int64_t* best_index) {
  const __m512i one = _mm512_set1_epi64(1);
  for (std::size_t g = 0; g < num_pushes; g += 8) {
    const double* rb = recips + count0 + g;
    alignas(64) double lane_count[8];
    for (int l = 0; l < 8; ++l) {
      lane_count[l] = static_cast<double>(count0 + g + l);
    }
    const __m512d tp = _mm512_load_pd(lane_count);
    const __m512d tm = _mm512_loadu_pd(total_mean + g);
    const __m512d ts = _mm512_loadu_pd(total_second + g);
    __m512d acc = _mm512_set1_pd(kInfinity);
    __m512d cmin = _mm512_setzero_pd();
    __m512i aidx = _mm512_set1_epi64(-1);
    __m512i iv = _mm512_setzero_si512();
    for (std::size_t i = 0; i < n; ++i) {
      // Lane l needs 1 / ((count0 + g + l) - position[i]): consecutive
      // table entries starting at rb - position[i].
      const __m512d y = _mm512_loadu_pd(rb + neg_position[i]);
      const __m512d mean = _mm512_sub_pd(tm, _mm512_set1_pd(sum_mean[i]));
      const __m512d second = _mm512_sub_pd(ts, _mm512_set1_pd(sum_second[i]));
      const __m512d width = _mm512_sub_pd(tp, _mm512_set1_pd(position[i]));
      const __m512d a = _mm512_mul_pd(mean, mean);
      const __m512d q0 = _mm512_mul_pd(a, y);
      const __m512d r = _mm512_fnmadd_pd(width, q0, a);
      const __m512d q = _mm512_fmadd_pd(r, y, q0);  // RN(a / width)
      const __m512d c = _mm512_sub_pd(second, q);
      cmin = _mm512_min_pd(cmin, c);
      const __m512d v = _mm512_add_pd(_mm512_set1_pd(error[i]), c);
      const __mmask8 lt = _mm512_cmp_pd_mask(v, acc, _CMP_LT_OQ);
      acc = _mm512_mask_blend_pd(lt, acc, v);
      aidx = _mm512_mask_blend_epi64(lt, aidx, iv);
      iv = _mm512_add_epi64(iv, one);
    }
    alignas(64) double bv[8];
    alignas(64) double cv[8];
    alignas(64) std::int64_t bi[8];
    _mm512_store_pd(bv, acc);
    _mm512_store_pd(cv, cmin);
    _mm512_store_si512(reinterpret_cast<__m512i*>(bi), aidx);
    for (int l = 0; l < 8; ++l) {
      if (cv[l] < 0.0) {
        // Some candidate in this lane's column produced a negative raw
        // cost, where the reference clamps: redo the lane exactly.
        ScalarStreamingBatchLane(error, sum_mean, sum_second, position, n,
                                 lane_count[l], total_mean[g + l],
                                 total_second[g + l], &best[g + l],
                                 &best_index[g + l]);
      } else {
        best[g + l] = bv[l];
        best_index[g + l] = bi[l];
      }
    }
  }
}

#pragma GCC diagnostic pop

#endif  // PROBSYN_SIMD_X86

// One vtable-free dispatch record per SimdPath; resolved once (or on a
// test override) and read with relaxed atomics on the hot paths.
struct SimdOps {
  SimdPath path;
  // Pushes per streaming_batch_sweep group: the sweep takes multiples of
  // it (1 on the scalar path, which scans every push in its own lane).
  std::size_t lanes;
  double (*min_plus_const)(const double*, std::size_t, double);
  double (*min_plus_pairs)(const double*, const double*, std::size_t);
  double (*min_plus_reverse)(const double*, const double*, std::size_t);
  double (*min_max_pairs)(const double*, const double*, std::size_t);
  double (*min_array)(const double*, std::size_t);
  double (*approx_quad_column)(const double*, const double*, const double*,
                               const double*, const double*, std::size_t,
                               double, double, double, double, double*);
  double (*streaming_merge_column)(const double*, const double*,
                                   const double*, const double*, std::size_t,
                                   double, double, double, double*);
  void (*streaming_batch_sweep)(const double*, const double*, const double*,
                                const double*, const std::int64_t*,
                                std::size_t, const double*, const double*,
                                std::size_t, const double*, std::size_t,
                                double*, std::int64_t*);
};

constexpr SimdOps kScalarOps{SimdPath::kScalar,
                             1,
                             ScalarMinPlusConst,
                             ScalarMinPlusPairs,
                             ScalarMinPlusReverse,
                             ScalarMinMaxPairs,
                             ScalarMinArray,
                             ScalarApproxQuadColumn,
                             ScalarStreamingMergeColumn,
                             ScalarStreamingBatchSweep};
#ifdef PROBSYN_SIMD_X86
constexpr SimdOps kAvx2Ops{SimdPath::kAvx2,
                           avx2::kLanes,
                           avx2::MinPlusConst,
                           avx2::MinPlusPairs,
                           avx2::MinPlusReverse,
                           avx2::MinMaxPairs,
                           avx2::MinArray,
                           avx2::ApproxQuadColumn,
                           avx2::StreamingMergeColumn,
                           avx2::StreamingBatchSweep};
constexpr SimdOps kAvx512Ops{SimdPath::kAvx512,
                             avx512::kLanes,
                             avx512::MinPlusConst,
                             avx512::MinPlusPairs,
                             avx512::MinPlusReverse,
                             avx512::MinMaxPairs,
                             avx512::MinArray,
                             avx512::ApproxQuadColumn,
                             avx512::StreamingMergeColumn,
                             Avx512StreamingBatchSweep};
#endif

// Widest path the CPU supports (build-gated).
SimdPath DetectSimdPath() {
#ifdef PROBSYN_SIMD_X86
  if (__builtin_cpu_supports("avx512f")) return SimdPath::kAvx512;
  if (__builtin_cpu_supports("avx2")) return SimdPath::kAvx2;
#endif
  return SimdPath::kScalar;
}

const SimdOps* OpsFor(SimdPath path) {
  // Clamp requests the CPU (or build) cannot honor down to the widest
  // supported path; kScalar is always honored exactly.
  SimdPath supported = DetectSimdPath();
  if (static_cast<int>(path) > static_cast<int>(supported)) path = supported;
  switch (path) {
#ifdef PROBSYN_SIMD_X86
    case SimdPath::kAvx512:
      return &kAvx512Ops;
    case SimdPath::kAvx2:
      return &kAvx2Ops;
#endif
    default:
      return &kScalarOps;
  }
}

// Initial dispatch: PROBSYN_SIMD env override ("scalar"/"avx2"/"avx512";
// "auto" or anything else falls through to CPUID), then CPUID.
const SimdOps* ResolveInitialOps() {
  if (const char* env = std::getenv("PROBSYN_SIMD")) {
    if (std::strcmp(env, "scalar") == 0) return OpsFor(SimdPath::kScalar);
    if (std::strcmp(env, "avx2") == 0) return OpsFor(SimdPath::kAvx2);
    if (std::strcmp(env, "avx512") == 0) return OpsFor(SimdPath::kAvx512);
  }
  return OpsFor(DetectSimdPath());
}

std::atomic<const SimdOps*> g_simd_ops{nullptr};

const SimdOps& Ops() {
  const SimdOps* ops = g_simd_ops.load(std::memory_order_relaxed);
  if (ops == nullptr) {
    ops = ResolveInitialOps();
    g_simd_ops.store(ops, std::memory_order_relaxed);
  }
  return *ops;
}

// The DP cells for layer b >= 2: err[b-1][j] over splits l < j plus the
// inherit transition, where `prev` is layer b-2 (budget b-1) and `cost[s]`
// is Cost([s, j]). Every cell reproduces the textbook scalar scan of
// equation (2) bit-exactly: the winning choice is the FIRST split attaining
// the candidate minimum, and the inherit transition wins all ties against
// splits (tests/reference holds that scan; the parity tests compare).

// kSum fast cell: chunked branch-free min-reduction through the
// runtime-dispatched SIMD primitives, then the textbook tie-break — the
// first split attaining the minimum — resolved inside the FIRST chunk
// attaining it. Floating-point min is exact whatever the accumulation
// order (and lane count), so the chunked minimum is bit-equal to the
// sequential scan's on every SIMD path.
inline void ComputeCellSumFast(const SimdOps& ops, const double* prev,
                               const double* cost, std::size_t j,
                               double* err_out, std::int64_t* choice_out) {
  constexpr std::size_t kChunk = 512;
  const double inherit = prev[j];
  double best = kInfinity;
  std::size_t best_begin = 0;
  const double* cost1 = cost + 1;  // cost1[l] = Cost([l+1, j])
  for (std::size_t begin = 0; begin < j; begin += kChunk) {
    const std::size_t end = std::min(j, begin + kChunk);
    const double m = ops.min_plus_pairs(prev + begin, cost1 + begin,
                                        end - begin);
    // Strict < keeps the earliest chunk attaining the global minimum, which
    // is where the first attaining split lives.
    if (m < best) {
      best = m;
      best_begin = begin;
    }
  }
  if (best < inherit) {
    const std::size_t end = std::min(j, best_begin + kChunk);
    for (std::size_t l = best_begin; l < end; ++l) {
      if (prev[l] + cost1[l] == best) {
        *err_out = best;
        *choice_out = static_cast<std::int64_t>(l);
        return;
      }
    }
    PROBSYN_CHECK(false);  // the chunk's minimum is attained in the chunk
  }
  *err_out = inherit;
  *choice_out = HistogramDpResult::kInheritChoice;
}

// Shared chunk geometry of the fast kMax cell and its bound tables.
constexpr std::size_t kMaxChunk = 512;

inline std::size_t NumChunks(std::size_t n) {
  return (n + kMaxChunk - 1) / kMaxChunk;
}

// Branch-free min over l in [begin, end) of max(prev[l], cost1[l]) through
// the SIMD dispatch. min/max are exact whatever the accumulation order.
inline double ChunkMaxMin(const SimdOps& ops, const double* prev,
                          const double* cost1, std::size_t begin,
                          std::size_t end) {
  return ops.min_max_pairs(prev + begin, cost1 + begin, end - begin);
}

// kMax fast cell: bisection-seeded monotone-split pruning with an EXACT
// bound-verified sweep. Candidate l has value v(l) = max(prev[l],
// cost1[l]) where, mathematically, prev[] (prefix errors under a fixed
// budget) is non-decreasing in l and cost1[l] (the cost of bucket
// [l+1, j], shrinking as l grows) is non-increasing — so v is the max of a
// falling and a rising curve, minimized at their crossing. The COMPUTED
// arrays can violate that monotonicity by rounding (catastrophic
// cancellation in the variance-style cost formulas), so a raw bisection is
// not bit-safe. Instead:
//
//  1. bisect for the crossing and take real candidate values there as the
//     starting minimum `m` (any true v value only helps pruning, never
//     correctness);
//  2. exact-minimum sweep: per chunk of 512 splits, skip iff
//     max(prev_cmin[c], cost_cmin[c]) >= m — a true lower bound of every
//     v in the chunk, from maintained chunk minima of the prev row and the
//     cost column — else scan the chunk branch-free and lower m. On
//     monotone data the bisection seed prunes everything except the
//     crossing neighborhood (the paper's O(log j) behavior, plus O(j/512)
//     bound probes); on adversarial data this degrades gracefully to the
//     vectorized scan, never to a wrong answer.
//  3. textbook tie-break: first chunk whose lower bound admits m
//     (strict >) is equality-scanned for the first split attaining m.
inline void ComputeCellMaxFast(const SimdOps& ops, const double* prev,
                               const double* cost, std::size_t j,
                               const double* prev_cmin,
                               const double* cost_cmin, double* err_out,
                               std::int64_t* choice_out) {
  const double inherit = prev[j];
  if (j == 0) {
    *err_out = inherit;
    *choice_out = HistogramDpResult::kInheritChoice;
    return;
  }
  const double* cost1 = cost + 1;  // cost1[l] = Cost([l+1, j])

  // 1. Seed from the (approximate) crossing: first l with
  // prev[l] >= cost1[l] under bisection, clamped into [0, j); probe it and
  // its left neighbor — on monotone data one of them is the true minimum.
  std::size_t lo = 0;
  std::size_t hi = j;
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    if (prev[mid] >= cost1[mid]) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const std::size_t seed = lo < j ? lo : j - 1;
  double m = std::max(prev[seed], cost1[seed]);
  if (seed > 0) {
    m = std::min(m, std::max(prev[seed - 1], cost1[seed - 1]));
  }

  // 2. Exact minimum with chunk-bound pruning. Skipping on >= is safe for
  // the VALUE: a skipped chunk's minimum is >= its bound >= m.
  const std::size_t chunks = NumChunks(j);
  for (std::size_t c = 0; c < chunks; ++c) {
    if (std::max(prev_cmin[c], cost_cmin[c]) >= m) continue;
    const std::size_t begin = c * kMaxChunk;
    const std::size_t end = std::min(j, begin + kMaxChunk);
    m = std::min(m, ChunkMaxMin(ops, prev, cost1, begin, end));
  }

  if (m < inherit) {
    // 3. First split attaining m; chunks whose bound EQUALS m may contain
    // it, so only strictly-greater bounds are skipped.
    for (std::size_t c = 0; c < chunks; ++c) {
      if (std::max(prev_cmin[c], cost_cmin[c]) > m) continue;
      const std::size_t begin = c * kMaxChunk;
      const std::size_t end = std::min(j, begin + kMaxChunk);
      for (std::size_t l = begin; l < end; ++l) {
        if (std::max(prev[l], cost1[l]) == m) {
          *err_out = m;
          *choice_out = static_cast<std::int64_t>(l);
          return;
        }
      }
    }
    PROBSYN_CHECK(false);  // the minimum is attained in some chunk
  }
  *err_out = inherit;
  *choice_out = HistogramDpResult::kInheritChoice;
}

// ---------------------------------------------------------------------------
// Per-oracle kernels. Each serves both DPs: Fill(j, cost, rep) writes the
// exact DP's cost column — cost[s] = Cost([s, j]).cost and rep[s] its
// optimal representative, for s = 0..j — and Cost(s, e) evaluates one
// candidate bucket of the approximate DP (cost part only; that DP re-costs
// its final buckets through the oracle itself). Each reproduces its
// oracle's Cost()/Extend() arithmetic verbatim (same expression sequence
// over the same arrays), which is what makes the kernels bit-identical to
// the oracle's own virtual sweep and Cost(): equal cost bits make the
// approximate DP's every comparison, class boundary, and traceback equal
// too.

// Dense per-layer gather of the candidate columns consumed by the fused
// bulk evaluators (SimdApproxQuadColumn): prev-layer errors and the
// oracle's prefix rows at the candidate positions, contiguous so whole
// candidate columns evaluate in vector lanes (the sparse candidate set
// defeats vectorization when probed in place).
struct ApproxCandidateGather {
  std::vector<double> prev, a, b, c, v;

  void Resize(std::size_t n, bool with_v) {
    prev.resize(n);
    a.resize(n);
    b.resize(n);
    c.resize(n);
    if (with_v) v.resize(n);
  }
};

// kGeneric: the virtual sweep and Cost() themselves, for oracle types
// defined outside the library (BucketCostOracle is a public interface).
struct GenericKernel {
  const BucketCostOracle* oracle;

  void Fill(std::size_t j, double* cost, double* rep) const {
    auto sweep = oracle->StartSweep(j);
    for (std::size_t s = j;; --s) {
      BucketCost c = sweep->Extend();
      cost[s] = c.cost;
      rep[s] = c.representative;
      if (s == 0) break;
    }
  }

  double Cost(std::size_t s, std::size_t e) const {
    return oracle->Cost(s, e).cost;
  }
};

// SseMomentOracle::Cost over hoisted raw cumulative arrays. Bulk-capable:
// the approximate DP runs whole candidate columns through the fused
// quadratic column kernel, bit-identical to Cost() per candidate.
struct SseMomentKernel {
  static constexpr bool kBulkColumn = true;

  const double* weight;    // weight_prefix().cumulative()
  const double* mean;      // mean_prefix().cumulative()
  const double* second;    // second_prefix().cumulative()
  const double* variance;  // variance_prefix().cumulative()
  const double* raw_mean;  // raw_mean_prefix().cumulative()
  bool world_mean;

  void Fill(std::size_t j, double* cost, double* rep) const {
    const double w_hi = weight[j + 1];
    const double m_hi = mean[j + 1];
    const double s_hi = second[j + 1];
    const double v_hi = variance[j + 1];
    const double r_hi = raw_mean[j + 1];
    for (std::size_t s = 0; s <= j; ++s) {
      const double sum_weight = w_hi - weight[s];
      const double sum_mean = m_hi - mean[s];
      const double sum_second = s_hi - second[s];
      if (sum_weight <= 0.0) {
        // Workload ignores every item in the bucket (see
        // SseMomentOracle::Cost).
        const double nb = static_cast<double>(j - s + 1);
        rep[s] = (r_hi - raw_mean[s]) / nb;
        cost[s] = 0.0;
        continue;
      }
      const double representative = sum_mean / sum_weight;
      double expected_square_of_sum = sum_mean * sum_mean;
      if (world_mean) expected_square_of_sum += v_hi - variance[s];
      const double c = sum_second - expected_square_of_sum / sum_weight;
      rep[s] = representative;
      cost[s] = ClampTinyNegative(c, 1e-6);
    }
  }

  double Cost(std::size_t s, std::size_t e) const {
    const double sum_weight = weight[e + 1] - weight[s];
    if (sum_weight <= 0.0) return 0.0;
    const double sum_mean = mean[e + 1] - mean[s];
    const double sum_second = second[e + 1] - second[s];
    double expected_square_of_sum = sum_mean * sum_mean;
    if (world_mean) expected_square_of_sum += variance[e + 1] - variance[s];
    const double c = sum_second - expected_square_of_sum / sum_weight;
    return ClampTinyNegative(c, 1e-6);
  }

  void Gather(const std::vector<std::size_t>& candidates,
              const double* prev_row, ApproxCandidateGather& gather) const {
    gather.Resize(candidates.size(), world_mean);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::size_t l = candidates[i];
      gather.prev[i] = prev_row[l];
      gather.a[i] = second[l + 1];
      gather.b[i] = mean[l + 1];
      gather.c[i] = weight[l + 1];
      if (world_mean) gather.v[i] = variance[l + 1];
    }
  }

  double BulkMin(const ApproxCandidateGather& gather, std::size_t valid,
                 std::size_t j, double* values) const {
    return SimdApproxQuadColumn(
        gather.prev.data(), gather.a.data(), gather.b.data(),
        gather.c.data(), world_mean ? gather.v.data() : nullptr, valid,
        second[j + 1], mean[j + 1], weight[j + 1],
        world_mean ? variance[j + 1] : 0.0, values);
  }
};

// SsreOracle::Cost over hoisted raw X/Y/Z cumulative arrays. Bulk-capable
// like the SSE kernel (same quadratic shape).
struct SsreKernel {
  static constexpr bool kBulkColumn = true;

  const double* x;
  const double* y;
  const double* z;

  void Fill(std::size_t j, double* cost, double* rep) const {
    const double x_hi = x[j + 1];
    const double y_hi = y[j + 1];
    const double z_hi = z[j + 1];
    for (std::size_t s = 0; s <= j; ++s) {
      const double xs = x_hi - x[s];
      const double ys = y_hi - y[s];
      const double zs = z_hi - z[s];
      if (zs <= 0.0) {
        // Every item in the bucket has zero workload weight.
        rep[s] = 0.0;
        cost[s] = 0.0;
        continue;
      }
      rep[s] = ys / zs;
      const double c = xs - ys * ys / zs;
      cost[s] = ClampTinyNegative(c, 1e-6);
    }
  }

  double Cost(std::size_t s, std::size_t e) const {
    const double zs = z[e + 1] - z[s];
    if (zs <= 0.0) return 0.0;
    const double xs = x[e + 1] - x[s];
    const double ys = y[e + 1] - y[s];
    const double c = xs - ys * ys / zs;
    return ClampTinyNegative(c, 1e-6);
  }

  void Gather(const std::vector<std::size_t>& candidates,
              const double* prev_row, ApproxCandidateGather& gather) const {
    gather.Resize(candidates.size(), /*with_v=*/false);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::size_t l = candidates[i];
      gather.prev[i] = prev_row[l];
      gather.a[i] = x[l + 1];
      gather.b[i] = y[l + 1];
      gather.c[i] = z[l + 1];
    }
  }

  double BulkMin(const ApproxCandidateGather& gather, std::size_t valid,
                 std::size_t j, double* values) const {
    return SimdApproxQuadColumn(gather.prev.data(), gather.a.data(),
                                gather.b.data(), gather.c.data(), nullptr,
                                valid, x[j + 1], y[j + 1], z[j + 1], 0.0,
                                values);
  }
};

// AbsCumulativeOracle. Fill drives the concrete warm-started FlatSweep
// directly — the identical hint-carrying convex search the oracle's own
// StartSweep runs (core/abs_oracle.cc), minus the virtual adapter. Warm
// starts shave the cold search's O(log |V|) probes to O(1) on most cells;
// parity with the virtual sweep holds by construction because both sides
// run the same FlatSweep probe sequence.
//
// Cost deliberately runs the COLD search (no warm hints): the oracle's
// virtual Cost() searches cold, and a warm-accepted optimum can land on a
// different grid index when rounding splits a cost plateau into several
// equal-valued pits — legal as an answer, fatal for bit parity. Its win is
// the inlined probe loop (OptimalGridIndex without a hint runs the
// identical probe sequence as the std::function-based Cost()).
struct AbsKernel {
  const AbsCumulativeOracle* oracle;

  void Fill(std::size_t j, double* cost, double* rep) const {
    AbsCumulativeOracle::FlatSweep sweep(*oracle, j);
    for (std::size_t s = j;; --s) {
      BucketCost c = sweep.Extend();
      cost[s] = c.cost;
      rep[s] = c.representative;
      if (s == 0) break;
    }
  }

  double Cost(std::size_t s, std::size_t e) const {
    const std::size_t best =
        oracle->OptimalGridIndex(s, e, AbsCumulativeOracle::kNoHint);
    return std::max(0.0, oracle->CostAtGridIndex(s, e, best));
  }
};

// MaxErrorOracle: per-bucket envelope minimization is irreducibly
// O(n_b log(n_b |V|)); the kernel's win is the devirtualized concrete call
// (the class is final) and skipping the per-column sweep allocation.
struct MaxErrorKernel {
  const MaxErrorOracle* oracle;

  void Fill(std::size_t j, double* cost, double* rep) const {
    for (std::size_t s = 0; s <= j; ++s) {
      BucketCost c = oracle->Cost(s, j);
      cost[s] = c.cost;
      rep[s] = c.representative;
    }
  }

  double Cost(std::size_t s, std::size_t e) const {
    return oracle->Cost(s, e).cost;
  }
};

// SseTupleWorldMeanOracle: Fill drives the concrete FlatSweep directly —
// the identical incremental sum_q2 arithmetic, minus the virtual adapter;
// Cost is the devirtualized concrete call (its per-bucket work is
// irreducible).
struct TupleSseKernel {
  const SseTupleWorldMeanOracle* oracle;

  void Fill(std::size_t j, double* cost, double* rep) const {
    SseTupleWorldMeanOracle::FlatSweep sweep(*oracle, j);
    for (std::size_t s = j;; --s) {
      BucketCost c = sweep.Extend();
      cost[s] = c.cost;
      rep[s] = c.representative;
      if (s == 0) break;
    }
  }

  double Cost(std::size_t s, std::size_t e) const {
    return oracle->Cost(s, e).cost;
  }
};

// The one place that maps an oracle's dynamic type to its kernel: calls
// run(kind, kernel) with the kernel of the library class the oracle
// belongs to, or with the generic kernel (kGeneric) for any other type.
// Both DPs dispatch through here, so one cast chain both picks the kernel
// and builds it.
template <typename Run>
decltype(auto) DispatchOnOracle(const BucketCostOracle& oracle, Run&& run) {
  if (const auto* sse = dynamic_cast<const SseMomentOracle*>(&oracle)) {
    return run(DpKernelKind::kSseMoment,
               SseMomentKernel{sse->weight_prefix().cumulative().data(),
                               sse->mean_prefix().cumulative().data(),
                               sse->second_prefix().cumulative().data(),
                               sse->variance_prefix().cumulative().data(),
                               sse->raw_mean_prefix().cumulative().data(),
                               sse->variant() == SseVariant::kWorldMean});
  }
  if (const auto* ssre = dynamic_cast<const SsreOracle*>(&oracle)) {
    return run(DpKernelKind::kSsre,
               SsreKernel{ssre->x_prefix().cumulative().data(),
                          ssre->y_prefix().cumulative().data(),
                          ssre->z_prefix().cumulative().data()});
  }
  if (const auto* abs = dynamic_cast<const AbsCumulativeOracle*>(&oracle)) {
    return run(DpKernelKind::kAbsCumulative, AbsKernel{abs});
  }
  if (const auto* max = dynamic_cast<const MaxErrorOracle*>(&oracle)) {
    return run(DpKernelKind::kMaxError, MaxErrorKernel{max});
  }
  if (const auto* tuple =
          dynamic_cast<const SseTupleWorldMeanOracle*>(&oracle)) {
    return run(DpKernelKind::kTupleSse, TupleSseKernel{tuple});
  }
  return run(DpKernelKind::kGeneric, GenericKernel{&oracle});
}

// ---------------------------------------------------------------------------
// The DP driver, shared by every kernel. Sequential and blocked-parallel
// forms compute every cell from identical inputs with the identical cell
// function, so all configurations produce the same table bit-for-bit.

// The workspace's buffers, unwrapped by the friend entry point (only it can
// reach DpWorkspace's privates). Every element the solve reads it has
// written first, so growth leaves them unwritten.
struct DpTables {
  template <typename T>
  using Buffer = arena_internal::UninitializedBuffer<T>;

  Buffer<double>& err;
  Buffer<std::int64_t>& choice;
  Buffer<double>& rep;
  Buffer<double>& cost_cols;
  Buffer<double>& rep_cols;
  Buffer<double>& layer_cmin;
  Buffer<double>& cost_cmin;
};

template <typename Kernel>
Status RunDp(const Kernel& kernel, std::size_t n, std::size_t cap,
             DpCombiner combiner, ThreadPool* pool, const ExecContext* ctx,
             DpTables ws) {
  const SimdOps& ops = Ops();  // one dispatch resolution per solve
  ws.err.Reserve(cap * n);
  ws.choice.Reserve(cap * n);
  ws.rep.Reserve(cap * n);
  double* err = ws.err.data();
  std::int64_t* choice = ws.choice.data();
  double* rep = ws.rep.data();

  // The kMax cell consumes chunk-minimum lower bounds of the err rows and
  // of each cost column (see ComputeCellMaxFast); maintain them only when
  // that cell runs.
  const bool track_bounds = combiner == DpCombiner::kMax;
  const std::size_t nchunks = NumChunks(n);
  double* layer_cmin = nullptr;
  if (track_bounds) {
    ws.layer_cmin.Reserve(cap * nchunks);
    layer_cmin = ws.layer_cmin.data();
  }
  // Chunk minima of err row `layer_idx` are rebuilt left-to-right as the
  // row's columns are produced: the first column of a chunk assigns (which
  // is what makes reused workspaces safe), later columns fold in.
  auto update_layer_cmin = [&](std::size_t layer_idx, std::size_t j) {
    double* slot = &layer_cmin[layer_idx * nchunks + j / kMaxChunk];
    double v = err[layer_idx * n + j];
    *slot = (j % kMaxChunk == 0) ? v : std::min(*slot, v);
  };
  // Chunk minima over cost[l+1] for splits l in [0, j), per column.
  auto fill_cost_cmin = [&ops](const double* costcol, std::size_t j,
                               double* cmin) {
    for (std::size_t begin = 0; begin < j; begin += kMaxChunk) {
      const std::size_t end = std::min(j, begin + kMaxChunk);
      cmin[begin / kMaxChunk] =
          ops.min_array(costcol + begin + 1, end - begin);
    }
  };

  auto first_layer = [&](std::size_t j, const double* costcol,
                         const double* repcol) {
    err[j] = costcol[0];
    choice[j] = HistogramDpResult::kWholePrefix;
    rep[j] = repcol[0];
  };
  auto finish_cell = [&](std::size_t b, std::size_t j, const double* costcol,
                         const double* repcol, const double* costcol_cmin) {
    double* err_cell = &err[(b - 1) * n + j];
    std::int64_t* choice_cell = &choice[(b - 1) * n + j];
    const double* prev = &err[(b - 2) * n];
    if (track_bounds) {
      ComputeCellMaxFast(ops, prev, costcol, j, &layer_cmin[(b - 2) * nchunks],
                         costcol_cmin, err_cell, choice_cell);
    } else {
      ComputeCellSumFast(ops, prev, costcol, j, err_cell, choice_cell);
    }
    // Cache the traceback bucket's representative so ExtractHistogram never
    // calls back into the oracle. Inherit cells end no bucket at j.
    rep[(b - 1) * n + j] =
        *choice_cell >= 0 ? repcol[*choice_cell + 1] : 0.0;
  };

  if (pool == nullptr || pool->num_threads() == 0 || n < 2) {
    // Sequential path: one leftward cost-column fill per right end j, then
    // every budget layer's cell for column j.
    ws.cost_cols.Reserve(n);
    ws.rep_cols.Reserve(n);
    if (track_bounds) ws.cost_cmin.Reserve(nchunks);
    double* costcol = ws.cost_cols.data();
    double* repcol = ws.rep_cols.data();
    double* cost_cmin = track_bounds ? ws.cost_cmin.data() : nullptr;
    for (std::size_t j = 0; j < n; ++j) {
      // Poll every 16 columns: a clock read can cost microseconds (vsyscall
      // fallback), comparable to ONE column's O(j + cap) cell work, so a
      // per-column poll blows the 2% overhead budget; 16 columns amortize
      // it to noise while keeping stop latency far under the 50ms bound.
      if ((j & 15u) == 0 && StopRequested(ctx)) {
        return ctx->StopStatus("exact-dp", "column", j, n);
      }
      kernel.Fill(j, costcol, repcol);
      if (track_bounds) fill_cost_cmin(costcol, j, cost_cmin);
      first_layer(j, costcol, repcol);
      if (track_bounds) update_layer_cmin(0, j);
      for (std::size_t b = 2; b <= cap; ++b) {
        finish_cell(b, j, costcol, repcol, cost_cmin);
        if (track_bounds) update_layer_cmin(b - 1, j);
      }
    }
    return Status::OK();
  }

  // Blocked parallel path. Columns are processed in blocks sized to keep
  // the two column buffers within ~16 MB each; per block the column fills
  // (mutually independent, and the O(n) work units that dominate every
  // configuration except sum-combiner cells) fan out in ONE fork-join.
  //
  // The budget layers are where the original route degraded (one fork-join
  // per (block, layer) — ~1000 per solve at n = 4096, B = 64 — left each
  // lane with less work per fan-out than the fork-join itself, and
  // BENCH_baseline showed real time RISING with lane count). The
  // repartition fixes the granularity without introducing any cross-lane
  // waiting — ThreadPool chunks may run sequentially in any order, so a
  // chunk that spins on another chunk's progress can livelock:
  //
  //  * max-combiner cells (track_bounds): each cell is an O(log n)
  //    bisection, asymptotically free next to its column's O(n) fill, so
  //    all layers' cells plus the chunk-minimum maintenance they consume
  //    run sequentially on the caller. One fan-out per block total.
  //  * sum combiners (O(j)-reduction cells): a staggered diagonal
  //    schedule. The block's columns split into `lanes`
  //    contiguous ranges and the cap-1 layers into batches of `tbatch`
  //    consecutive layers; in diagonal d, lane k computes batch d - k over
  //    its own columns (layers ascending). Cell (b, j) needs layer b-1 at
  //    every column <= j: lanes left of k finished that batch one diagonal
  //    earlier (joined), and within a lane layers run in order — so every
  //    dependency is complete and each cell is the identical computation
  //    on identical inputs as the sequential solver (bit-equal tables).
  //    Fork-joins per block: ~(cap-1)/tbatch + lanes instead of cap - 1.
  const std::size_t block =
      std::clamp<std::size_t>((16u << 20) / (sizeof(double) * n), 16, 512);
  ws.cost_cols.Reserve(block * n);
  ws.rep_cols.Reserve(block * n);
  if (track_bounds) ws.cost_cmin.Reserve(block * nchunks);
  double* cost_block = ws.cost_cols.data();
  double* rep_block = ws.rep_cols.data();
  double* cost_cmin_block = track_bounds ? ws.cost_cmin.data() : nullptr;
  for (std::size_t j0 = 0; j0 < n; j0 += block) {
    const std::size_t j1 = std::min(n, j0 + block);
    if (StopRequested(ctx)) {
      return ctx->StopStatus("exact-dp", "column", j0, n);
    }
    // Chunks poll too (every 64 columns) and bail by SKIPPING their
    // remaining columns: once a stop fires the whole table is abandoned,
    // so partial columns are never read — the fan-out still joins, leaving
    // no chunk running behind the caller's back.
    PROBSYN_RETURN_IF_ERROR(
        pool->ParallelFor(j0, j1, [&](std::size_t jb, std::size_t je) {
          for (std::size_t j = jb; j < je; ++j) {
            if (ctx != nullptr && ((j - jb) & 63u) == 0 &&
                ctx->StopRequested()) {
              return;
            }
            double* costcol = &cost_block[(j - j0) * n];
            double* repcol = &rep_block[(j - j0) * n];
            kernel.Fill(j, costcol, repcol);
            if (track_bounds) {
              fill_cost_cmin(costcol, j, &cost_cmin_block[(j - j0) * nchunks]);
            }
            first_layer(j, costcol, repcol);
          }
        }));
    if (StopRequested(ctx)) {
      return ctx->StopStatus("exact-dp", "column", j0, n);
    }
    if (track_bounds) {
      for (std::size_t j = j0; j < j1; ++j) update_layer_cmin(0, j);
      for (std::size_t b = 2; b <= cap; ++b) {
        if (StopRequested(ctx)) {
          return ctx->StopStatus("exact-dp", "budget layer", b, cap);
        }
        for (std::size_t j = j0; j < j1; ++j) {
          finish_cell(b, j, &cost_block[(j - j0) * n],
                      &rep_block[(j - j0) * n],
                      &cost_cmin_block[(j - j0) * nchunks]);
          update_layer_cmin(b - 1, j);
        }
      }
      continue;
    }
    if (cap < 2) continue;
    const std::size_t cols = j1 - j0;
    const std::size_t lanes = std::min(pool->num_threads() + 1, cols);
    const std::size_t nlayers = cap - 1;  // layers 2..cap
    const std::size_t tbatch = std::max<std::size_t>(1, (nlayers + 7) / 8);
    const std::size_t nbatch = (nlayers + tbatch - 1) / tbatch;
    for (std::size_t d = 0; d + 1 < nbatch + lanes; ++d) {
      if (StopRequested(ctx)) {
        return ctx->StopStatus("exact-dp", "diagonal", d, nbatch + lanes - 1);
      }
      PROBSYN_RETURN_IF_ERROR(
          pool->ParallelFor(0, lanes, [&](std::size_t lb, std::size_t le) {
            for (std::size_t lane = lb; lane < le; ++lane) {
              if (d < lane || d - lane >= nbatch) continue;
              const std::size_t ja = j0 + lane * cols / lanes;
              const std::size_t jz = j0 + (lane + 1) * cols / lanes;
              const std::size_t b_lo = 2 + (d - lane) * tbatch;
              const std::size_t b_hi = std::min(cap, b_lo + tbatch - 1);
              for (std::size_t b = b_lo; b <= b_hi; ++b) {
                if (StopRequested(ctx)) return;  // table abandoned anyway
                for (std::size_t j = ja; j < jz; ++j) {
                  finish_cell(b, j, &cost_block[(j - j0) * n],
                              &rep_block[(j - j0) * n], nullptr);
                }
              }
            }
          }));
    }
  }
  return Status::OK();
}

// Approximate-DP traceback entry: the cell inherits the previous layer's
// value (fewer buckets were already as good). Any other entry is a split l
// >= 0: the last bucket is [l + 1, j].
constexpr std::int32_t kApproxInherit = -2;

// Walks the approximate DP's flat traceback rows (row b - 2 for budget b)
// back from prefix [0, n) under `budget` buckets, then re-costs the
// buckets through the oracle.
CostedHistogram TraceApproxRows(const BucketCostOracle& oracle,
                                const std::int32_t* choices, std::size_t n,
                                std::size_t budget) {
  std::vector<HistogramBucket> buckets;
  std::size_t layer = budget;
  std::size_t j = n - 1;
  for (;;) {
    if (layer < 2) {
      buckets.push_back({0, j, 0.0});
      break;
    }
    const std::int32_t c = choices[(layer - 2) * n + j];
    if (c == kApproxInherit) {
      --layer;
      continue;
    }
    const std::size_t l = static_cast<std::size_t>(c);
    buckets.push_back({l + 1, j, 0.0});
    j = l;
    --layer;
  }
  std::reverse(buckets.begin(), buckets.end());
  CostedHistogram traced;
  for (HistogramBucket& b : buckets) {
    BucketCost bc = oracle.Cost(b.start, b.end);
    b.representative = bc.representative;
    traced.cost += bc.cost;
  }
  traced.histogram = Histogram(std::move(buckets));
  return traced;
}

// The approximate-DP driver, shared by every kernel: identical
// control flow, comparisons, and evaluation counting in every
// configuration, so bit-identical cost evaluations imply bit-identical
// histograms, costs, and oracle_evaluations.
template <typename Kernel>
StatusOr<ApproxHistogramResult> RunApproxDp(
    const BucketCostOracle& oracle, const Kernel& kernel,
    std::size_t max_buckets, double epsilon, DpKernelKind kind,
    const ApproxDpKernelOptions& options) {
  const ExecContext* ctx = options.context;
  const std::size_t n = oracle.domain_size();
  if (n == 0) return Status::InvalidArgument("empty domain");
  if (max_buckets < 1) return Status::InvalidArgument("need >= 1 bucket");
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (n > static_cast<std::size_t>(INT32_MAX)) {
    return Status::InvalidArgument(
        "domain too large for the approximate DP's 32-bit traceback rows");
  }
  const std::size_t cap = std::min(max_buckets, n);
  // Per-layer slack; (1 + delta)^(cap-1) <= e^(eps/2) <= 1 + eps for
  // eps <= 1. Larger eps values still yield a valid (coarser) guarantee.
  const double delta =
      std::min(0.5, epsilon / (2.0 * static_cast<double>(cap)));

  std::size_t evaluations = 0;

  // Row b - 2 holds layer b's choices (layer 1 is always the whole prefix).
  std::vector<std::int32_t> choices((cap - 1) * n);

  std::vector<double> prev(n), cur(n);
  for (std::size_t j = 0; j < n; ++j) {
    prev[j] = kernel.Cost(0, j);
    ++evaluations;
  }
  // Layer values at the full domain (ApproxHistogramResult::cost_curve):
  // the sharded merge DP consumes the whole budget curve, not just the
  // final layer. Exactly non-increasing because each cell seeds with the
  // previous layer's value (`best = prev[j]` below).
  std::vector<double> cost_curve;
  cost_curve.reserve(cap);
  cost_curve.push_back(prev[n - 1]);

  // Bulk-capable kernels (the quadratic oracles) gather the candidate
  // columns densely once per layer and evaluate whole columns in the fused
  // SIMD kernel; the search-backed kernels keep the one-pass
  // compare-per-candidate scan (materializing buys nothing when each
  // evaluation is itself a search or a virtual call).
  constexpr bool kBulk = requires { Kernel::kBulkColumn; };
  std::vector<std::size_t> candidates;
  [[maybe_unused]] ApproxCandidateGather gather;
  [[maybe_unused]] std::vector<double> candidate_values;
  for (std::size_t b = 2; b <= cap; ++b) {
    if (StopRequested(ctx)) {
      return ctx->StopStatus("approx-dp", "budget layer", b, cap);
    }
    // Geometric error classes of the previous (monotone) layer; keep the
    // rightmost position of each class. Classes are contiguous intervals
    // because prev[] is non-decreasing in j.
    candidates.clear();
    double class_base = prev[0];
    for (std::size_t j = 0; j + 1 < n; ++j) {
      bool class_ends = (prev[j + 1] > class_base * (1.0 + delta)) ||
                        (class_base == 0.0 && prev[j + 1] > 0.0);
      if (class_ends) {
        candidates.push_back(j);
        class_base = prev[j + 1];
      }
    }
    if (n >= 1) candidates.push_back(n - 1);

    if constexpr (kBulk) {
      kernel.Gather(candidates, prev.data(), gather);
      candidate_values.resize(candidates.size());
    }
    std::size_t valid = 0;  // candidates with l < j; monotone in j
    for (std::size_t j = 0; j < n; ++j) {
      if ((j & 255u) == 0 && StopRequested(ctx)) {
        return ctx->StopStatus("approx-dp", "column", b * n + j, cap * n);
      }
      while (valid < candidates.size() && candidates[valid] < j) ++valid;
      double best = prev[j];  // Inherit: fewer buckets already optimal.
      std::int32_t best_choice = kApproxInherit;
      if constexpr (kBulk) {
        // Fused column evaluation + SIMD min, then the textbook
        // tie-break: first candidate attaining the minimum, inherit
        // winning all ties (strict <) — identical to the sequential
        // compare-per-candidate scan, since FP min is exact in any order.
        const double m =
            kernel.BulkMin(gather, valid, j, candidate_values.data());
        evaluations += valid;
        if (m < best) {
          best = m;
          for (std::size_t i = 0; i < valid; ++i) {
            if (candidate_values[i] == m) {
              best_choice = static_cast<std::int32_t>(candidates[i]);
              break;
            }
          }
        }
      } else {
        for (std::size_t i = 0; i < valid; ++i) {
          const std::size_t l = candidates[i];
          const double v = prev[l] + kernel.Cost(l + 1, j);
          ++evaluations;
          if (v < best) {
            best = v;
            best_choice = static_cast<std::int32_t>(l);
          }
        }
      }
      if (j >= 1) {
        const double v = prev[j - 1] + kernel.Cost(j, j);
        ++evaluations;
        if (v < best) {
          best = v;
          best_choice = static_cast<std::int32_t>(j - 1);
        }
      }
      cur[j] = best;
      choices[(b - 2) * n + j] = best_choice;
    }
    prev.swap(cur);
    cost_curve.push_back(prev[n - 1]);
  }

  CostedHistogram traced = TraceApproxRows(oracle, choices.data(), n, cap);
  ApproxHistogramResult result;
  result.histogram = std::move(traced.histogram);
  result.cost = traced.cost;
  result.oracle_evaluations = evaluations;
  result.kernel = kind;
  result.cost_curve = std::move(cost_curve);
  if (options.keep_choices) result.choices = std::move(choices);
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// StreamChainStore: hash-consed, refcounted boundary-chain nodes.

std::size_t StreamChainStore::BucketOf(Ref parent,
                                       std::size_t position) const {
  std::uint64_t h =
      static_cast<std::uint64_t>(position) * 0x9E3779B97F4A7C15ull ^
      (static_cast<std::uint64_t>(parent) + 0x9E3779B97F4A7C15ull) *
          0xC2B2AE3D27D4EB4Full;
  h ^= h >> 29;
  return static_cast<std::size_t>(h) & (buckets_.size() - 1);
}

// Rebuilds the hash table over the whole reserved node pool (load factor
// <= 1 against capacity, so one rehash per pool growth, never per insert).
void StreamChainStore::Rehash() {
  std::size_t want = 64;
  while (want < nodes_.capacity()) want <<= 1;
  if (want <= buckets_.size()) return;
  ++stats_.grow_events;
  buckets_.assign(want, kNil);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    if (node.refcount == 0) continue;  // free-listed slot
    const std::size_t b = BucketOf(node.parent, node.position);
    node.hash_next = buckets_[b];
    buckets_[b] = static_cast<Ref>(i);
  }
}

StreamChainStore::Ref StreamChainStore::Extend(Ref parent, double sum_mean,
                                               double sum_second,
                                               std::size_t position) {
  if (!buckets_.empty()) {
    for (Ref i = buckets_[BucketOf(parent, position)]; i != kNil;
         i = nodes_[i].hash_next) {
      Node& node = nodes_[i];
      if (node.parent == parent && node.position == position) {
        // One stream has one snapshot per position, so a consed hit is
        // necessarily payload-identical.
        PROBSYN_DCHECK(node.sum_mean == sum_mean &&
                       node.sum_second == sum_second);
        ++node.refcount;
        ++stats_.consed;
        return i;
      }
    }
  }

  Ref i;
  if (!free_.empty()) {
    i = free_.back();
    free_.pop_back();
  } else {
    if (nodes_.size() == nodes_.capacity()) {
      ++stats_.grow_events;
      nodes_.reserve(nodes_.empty() ? 64 : nodes_.capacity() * 2);
      // The free list can hold every node, so releasing never allocates.
      free_.reserve(nodes_.capacity());
    }
    i = static_cast<Ref>(nodes_.size());
    nodes_.emplace_back();
  }
  Rehash();  // no-op unless the pool outgrew the table

  Node& node = nodes_[i];
  node.sum_mean = sum_mean;
  node.sum_second = sum_second;
  node.position = position;
  node.parent = parent;
  node.refcount = 1;
  const std::size_t b = BucketOf(parent, position);
  node.hash_next = buckets_[b];
  buckets_[b] = i;
  if (parent != kNil) ++nodes_[parent].refcount;
  ++stats_.created;
  ++stats_.live;
  return i;
}

void StreamChainStore::AddRef(Ref node) {
  PROBSYN_DCHECK(node != kNil && nodes_[node].refcount > 0);
  ++nodes_[node].refcount;
}

void StreamChainStore::Release(Ref node) {
  while (node != kNil) {
    Node& dying = nodes_[node];
    PROBSYN_DCHECK(dying.refcount > 0);
    if (--dying.refcount > 0) return;
    // Unlink from the hash bucket, free the slot, cascade to the parent.
    Ref* link = &buckets_[BucketOf(dying.parent, dying.position)];
    while (*link != node) link = &nodes_[*link].hash_next;
    *link = dying.hash_next;
    free_.push_back(node);
    ++stats_.freed;
    --stats_.live;
    node = dying.parent;
  }
}

void DpWorkspacePool::Lease::Release() {
  if (pool_ != nullptr && workspace_ != nullptr) {
    std::lock_guard<std::mutex> lock(pool_->mutex_);
    pool_->free_.push_back(std::move(workspace_));
    --pool_->stats_.outstanding;
  }
}

DpWorkspacePool::Lease DpWorkspacePool::Acquire() {
  std::unique_ptr<DpWorkspace> workspace;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      workspace = std::move(free_.back());
      free_.pop_back();
    }
    ++stats_.outstanding;
  }
  if (workspace == nullptr) {
    workspace = std::make_unique<DpWorkspace>();
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.created;
  }
  return Lease(this, std::move(workspace));
}

DpWorkspacePool::Stats DpWorkspacePool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

HistogramDpResult SolveHistogramDp(const BucketCostOracle& oracle,
                                   std::size_t max_buckets, DpCombiner combiner,
                                   const DpKernelOptions& options) {
  const std::size_t n = oracle.domain_size();
  PROBSYN_CHECK(n > 0 && max_buckets >= 1);
  // Budgets beyond n buckets cannot help; cap the table, not the API.
  const std::size_t cap = std::min(max_buckets, n);

  HistogramDpResult result;
  result.n_ = n;
  result.max_buckets_ = max_buckets;
  result.cap_ = cap;
  DpWorkspace* ws = options.workspace;
  if (ws == nullptr) {
    result.owned_ = std::make_shared<DpWorkspace>();
    ws = result.owned_.get();
  }

  DpTables tables{ws->err_,      ws->choice_,    ws->rep_,
                  ws->cost_cols_, ws->rep_cols_, ws->layer_cmin_,
                  ws->cost_cmin_};
  result.status_ = DispatchOnOracle(
      oracle, [&](DpKernelKind kind, const auto& kernel) {
        result.kernel_ = kind;
        return RunDp(kernel, n, cap, combiner, options.pool, options.context,
                     tables);
      });
  result.err_ = ws->err_.data();
  result.choice_ = ws->choice_.data();
  result.rep_ = ws->rep_.data();
  return result;
}

StatusOr<ApproxHistogramResult> SolveApproxHistogramDp(
    const BucketCostOracle& oracle, std::size_t max_buckets, double epsilon,
    const ApproxDpKernelOptions& options) {
  return DispatchOnOracle(
      oracle, [&](DpKernelKind kind, const auto& kernel) {
        return RunApproxDp(oracle, kernel, max_buckets, epsilon, kind,
                           options);
      });
}

CostedHistogram TraceApproxHistogram(const BucketCostOracle& oracle,
                                     const ApproxHistogramResult& solved,
                                     std::size_t budget) {
  const std::size_t n = oracle.domain_size();
  const std::size_t layers = solved.cost_curve.size();
  PROBSYN_CHECK(budget >= 1 && budget <= layers);
  PROBSYN_CHECK(solved.choices.size() == (layers - 1) * n);
  return TraceApproxRows(oracle, solved.choices.data(), n, budget);
}

const char* SimdPathName(SimdPath path) {
  switch (path) {
    case SimdPath::kScalar: return "scalar";
    case SimdPath::kAvx2: return "avx2";
    case SimdPath::kAvx512: return "avx512";
  }
  return "?";
}

SimdPath ActiveSimdPath() { return Ops().path; }

SimdPath ForceSimdPath(SimdPath path) {
  const SimdOps* ops = OpsFor(path);
  g_simd_ops.store(ops, std::memory_order_relaxed);
  return ops->path;
}

double SimdMinPlusConst(const double* a, std::size_t n, double add) {
  return Ops().min_plus_const(a, n, add);
}

double SimdMinPlusPairs(const double* a, const double* b, std::size_t n) {
  return Ops().min_plus_pairs(a, b, n);
}

double SimdMinPlusReverse(const double* a, const double* b, std::size_t n) {
  return Ops().min_plus_reverse(a, b, n);
}

double SimdMinMaxPairs(const double* a, const double* b, std::size_t n) {
  return Ops().min_max_pairs(a, b, n);
}

double SimdMinArray(const double* a, std::size_t n) {
  return Ops().min_array(a, n);
}

double SimdApproxQuadColumn(const double* prev, const double* a,
                            const double* b, const double* c, const double* v,
                            std::size_t n, double a_hi, double b_hi,
                            double c_hi, double v_hi, double* values) {
  return Ops().approx_quad_column(prev, a, b, c, v, n, a_hi, b_hi, c_hi,
                                  v_hi, values);
}

double SimdStreamingMergeColumn(const double* error, const double* sum_mean,
                                const double* sum_second,
                                const double* position, std::size_t n,
                                double count, double total_mean,
                                double total_second, double* values) {
  return Ops().streaming_merge_column(error, sum_mean, sum_second, position,
                                      n, count, total_mean, total_second,
                                      values);
}

void SimdStreamingBatchSweep(const double* error, const double* sum_mean,
                             const double* sum_second, const double* position,
                             const std::int64_t* neg_position, std::size_t n,
                             const double* total_mean,
                             const double* total_second, std::size_t count0,
                             const double* recips, std::size_t num_pushes,
                             double* best, std::int64_t* best_index,
                             double* scratch) {
  const SimdOps& ops = Ops();
  const std::size_t full = num_pushes - num_pushes % ops.lanes;
  if (full > 0) {
    ops.streaming_batch_sweep(error, sum_mean, sum_second, position,
                              neg_position, n, total_mean, total_second,
                              count0, recips, full, best, best_index);
  }
  // The pushes after the last full group, one at a time: the merge column,
  // then the first index holding its minimum — the index and element the
  // scalar lane's strict-< scan keeps. A minimum not below +infinity (no
  // candidates, or non-finite moments) takes the scalar lane itself.
  for (std::size_t j = full; j < num_pushes; ++j) {
    const double count = static_cast<double>(count0 + j);
    const double m = ops.streaming_merge_column(
        error, sum_mean, sum_second, position, n, count, total_mean[j],
        total_second[j], scratch);
    if (!(m < kInfinity)) {
      ScalarStreamingBatchLane(error, sum_mean, sum_second, position, n,
                               count, total_mean[j], total_second[j],
                               &best[j], &best_index[j]);
      continue;
    }
    std::size_t i = 0;
    while (i < n && !(scratch[i] == m)) ++i;
    best[j] = scratch[i];
    best_index[j] = static_cast<std::int64_t>(i);
  }
}

}  // namespace probsyn
