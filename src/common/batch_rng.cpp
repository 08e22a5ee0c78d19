#include "common/batch_rng.hpp"

#include <cmath>

#include "common/ziggurat.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
// GCC 12's avx512fintrin.h self-initialises a local (`__Y = __Y`) that
// -Wmaybe-uninitialized/-Wuninitialized flag at every inlined use (GCC bug
// 105593); silence them for the system header only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#define NDPCR_BATCH_RNG_X86 1
#endif

// This translation unit is compiled with -ffp-contract=off (see
// src/common/CMakeLists.txt): the portable path must perform the exact
// multiply/add sequence the AVX-512 kernels perform, and a fused
// multiply-add would silently change the rounding of the gap values.

namespace ndpcr {
namespace {

constexpr double kInv53 = 0x1.0p-53;
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

// splitmix64 expansion, one independent stream per (stream, lane).
void seed_lanes(std::uint64_t seed, std::uint64_t stream,
                std::uint64_t state[4][BatchRng::kLanes]) {
  for (std::size_t lane = 0; lane < BatchRng::kLanes; ++lane) {
    std::uint64_t x =
        seed + kGolden * (stream * BatchRng::kLanes + lane + 1);
    for (int word = 0; word < 4; ++word) {
      x += kGolden;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      state[word][lane] = z ^ (z >> 31);
    }
  }
}

inline std::uint64_t rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// One xoshiro256** step of a single lane of the interleaved state.
inline std::uint64_t lane_next(std::uint64_t state[4][BatchRng::kLanes],
                               std::size_t lane) {
  std::uint64_t s0 = state[0][lane], s1 = state[1][lane];
  std::uint64_t s2 = state[2][lane], s3 = state[3][lane];
  const std::uint64_t result = rotl64(s1 * 5, 7) * 9;
  const std::uint64_t t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = rotl64(s3, 45);
  state[0][lane] = s0;
  state[1][lane] = s1;
  state[2][lane] = s2;
  state[3][lane] = s3;
  return result;
}

// Full ziggurat walk from an already-drawn first candidate `u`;
// continuation draws (wedge tests, tail) come from `tail`. The fast
// accept is the same (ux * 2^-53) * x_i < x_{i+1} sequence the vector
// kernel evaluates.
double zig_from(std::uint64_t u, Rng& tail) {
  const auto& t = detail::ziggurat_exp_tables();
  for (;;) {
    const int i = static_cast<int>(u & 255u);
    const double ux = static_cast<double>(u >> 11) * kInv53;
    const double val = ux * t.x_[i];
    if (val < t.x_[i + 1]) return val;
    if (i == 0) {
      double uu = tail.next_double();
      while (uu <= 0.0) uu = tail.next_double();
      return 7.69711747013104972 - std::log(uu);
    }
    const double u2 = tail.next_double();
    if (detail::wedge_accept(t, i, u2, val)) return val;
    u = tail.next_u64();
  }
}

// Fixed shift-1/2/4 prefix tree over one 8-lane block, then the carry.
// Both paths use exactly this association.
inline void prefix8(const double g[BatchRng::kLanes],
                    double out[BatchRng::kLanes], double& carry) {
  double a[BatchRng::kLanes], b[BatchRng::kLanes];
  for (std::size_t i = 0; i < 8; ++i) a[i] = i >= 1 ? g[i] + g[i - 1] : g[i];
  for (std::size_t i = 0; i < 8; ++i) b[i] = i >= 2 ? a[i] + a[i - 2] : a[i];
  for (std::size_t i = 0; i < 8; ++i) {
    out[i] = (i >= 4 ? b[i] + b[i - 4] : b[i]) + carry;
  }
  carry = out[7];
}

// ---- portable path ----------------------------------------------------

void exp_block_scalar(std::uint64_t state[4][BatchRng::kLanes], Rng& tail,
                      double mean, double out[BatchRng::kLanes],
                      double& carry) {
  double gaps[BatchRng::kLanes];
  for (std::size_t lane = 0; lane < BatchRng::kLanes; ++lane) {
    gaps[lane] = zig_from(lane_next(state, lane), tail) * mean;
  }
  prefix8(gaps, out, carry);
}

void below_block_scalar(std::uint64_t state[4][BatchRng::kLanes],
                        std::uint32_t bound,
                        std::uint32_t out[BatchRng::kLanes]) {
  for (std::size_t lane = 0; lane < BatchRng::kLanes; ++lane) {
    const std::uint64_t u = lane_next(state, lane);
    const double ux = static_cast<double>(u >> 11) * kInv53;
    auto v = static_cast<std::uint64_t>(ux * static_cast<double>(bound));
    if (v >= bound) v = bound - 1;
    out[lane] = static_cast<std::uint32_t>(v);
  }
}

// ---- AVX-512 path -----------------------------------------------------

#if NDPCR_BATCH_RNG_X86

__attribute__((target("avx512f,avx512dq"))) void exp_fill_avx512(
    std::uint64_t state[4][BatchRng::kLanes], Rng& tail, double* times,
    std::size_t blocks, double mean, double& carry) {
  const auto& t = detail::ziggurat_exp_tables();
  alignas(64) static thread_local double xs[256];
  static thread_local bool xs_ready = false;
  if (!xs_ready) {
    for (int i = 0; i < 256; ++i) xs[i] = t.x_[i + 1];
    xs_ready = true;
  }
  __m512i s0 = _mm512_load_epi64(state[0]);
  __m512i s1 = _mm512_load_epi64(state[1]);
  __m512i s2 = _mm512_load_epi64(state[2]);
  __m512i s3 = _mm512_load_epi64(state[3]);
  const __m512d scale = _mm512_set1_pd(kInv53);
  const __m512d vmean = _mm512_set1_pd(mean);
  // Carry stays in a register between blocks (broadcast of lane 7) - a
  // store/reload of times[blk*8+7] would put a store-forward on every
  // block's critical path.
  __m512d vcarry = _mm512_set1_pd(carry);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    // xoshiro256** step, all 8 lanes; *5 and *9 as shift-adds (vpmullq
    // is microcoded on Skylake-SP).
    __m512i r = _mm512_add_epi64(s1, _mm512_slli_epi64(s1, 2));
    r = _mm512_rolv_epi64(r, _mm512_set1_epi64(7));
    r = _mm512_add_epi64(r, _mm512_slli_epi64(r, 3));
    const __m512i tw = _mm512_slli_epi64(s1, 17);
    s2 = _mm512_xor_si512(s2, s0);
    s3 = _mm512_xor_si512(s3, s1);
    s1 = _mm512_xor_si512(s1, s2);
    s0 = _mm512_xor_si512(s0, s3);
    s2 = _mm512_xor_si512(s2, tw);
    s3 = _mm512_rolv_epi64(s3, _mm512_set1_epi64(45));

    const __m512i idx = _mm512_and_epi64(r, _mm512_set1_epi64(255));
    const __m512d xi = _mm512_i64gather_pd(idx, t.x_, 8);
    const __m512d xi1 = _mm512_i64gather_pd(idx, xs, 8);
    const __m512d ux =
        _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(r, 11)), scale);
    const __m512d val = _mm512_mul_pd(ux, xi);
    const __mmask8 ok = _mm512_cmp_pd_mask(val, xi1, _CMP_LT_OQ);
    __m512d g = _mm512_mul_pd(val, vmean);
    if (ok != 0xFF) {
      // Rare (~2%): finish the rejected lanes' walks in lane order.
      alignas(64) std::uint64_t us[8];
      alignas(64) double gs[8];
      _mm512_store_epi64(us, r);
      _mm512_store_pd(gs, g);
      for (std::size_t lane = 0; lane < 8; ++lane) {
        if ((ok >> lane) & 1) continue;
        gs[lane] = zig_from(us[lane], tail) * mean;
      }
      g = _mm512_load_pd(gs);
    }
    __m512d a = _mm512_add_pd(g, _mm512_maskz_expand_pd(0xFE, g));
    a = _mm512_add_pd(a, _mm512_maskz_expand_pd(0xFC, a));
    a = _mm512_add_pd(a, _mm512_maskz_expand_pd(0xF0, a));
    a = _mm512_add_pd(a, vcarry);
    _mm512_storeu_pd(times + blk * 8, a);
    vcarry = _mm512_permutexvar_pd(_mm512_set1_epi64(7), a);
  }
  if (blocks > 0) carry = times[blocks * 8 - 1];
  _mm512_store_epi64(state[0], s0);
  _mm512_store_epi64(state[1], s1);
  _mm512_store_epi64(state[2], s2);
  _mm512_store_epi64(state[3], s3);
}

__attribute__((target("avx512f,avx512dq"))) void below_fill_avx512(
    std::uint64_t state[4][BatchRng::kLanes], std::uint32_t bound,
    std::uint32_t* out, std::size_t blocks) {
  __m512i s0 = _mm512_load_epi64(state[0]);
  __m512i s1 = _mm512_load_epi64(state[1]);
  __m512i s2 = _mm512_load_epi64(state[2]);
  __m512i s3 = _mm512_load_epi64(state[3]);
  const __m512d scale = _mm512_set1_pd(kInv53);
  const __m512d vbound = _mm512_set1_pd(static_cast<double>(bound));
  const __m512i vmax = _mm512_set1_epi64(bound - 1);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    __m512i r = _mm512_add_epi64(s1, _mm512_slli_epi64(s1, 2));
    r = _mm512_rolv_epi64(r, _mm512_set1_epi64(7));
    r = _mm512_add_epi64(r, _mm512_slli_epi64(r, 3));
    const __m512i tw = _mm512_slli_epi64(s1, 17);
    s2 = _mm512_xor_si512(s2, s0);
    s3 = _mm512_xor_si512(s3, s1);
    s1 = _mm512_xor_si512(s1, s2);
    s0 = _mm512_xor_si512(s0, s3);
    s2 = _mm512_xor_si512(s2, tw);
    s3 = _mm512_rolv_epi64(s3, _mm512_set1_epi64(45));

    const __m512d ux =
        _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(r, 11)), scale);
    __m512i v = _mm512_cvttpd_epi64(_mm512_mul_pd(ux, vbound));
    v = _mm512_min_epu64(v, vmax);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + blk * 8),
                        _mm512_cvtepi64_epi32(v));
  }
  _mm512_store_epi64(state[0], s0);
  _mm512_store_epi64(state[1], s1);
  _mm512_store_epi64(state[2], s2);
  _mm512_store_epi64(state[3], s3);
}

#endif  // NDPCR_BATCH_RNG_X86

}  // namespace

BatchRng::BatchRng(std::uint64_t seed) : BatchRng(seed, vectorized()) {}

BatchRng::BatchRng(std::uint64_t seed, bool use_vector)
    : tail_(seed ^ kGolden), vector_(use_vector && vectorized()) {
  seed_lanes(seed, 0, gap_state_);
  seed_lanes(seed, 1, pick_state_);
}

bool BatchRng::vectorized() {
#if NDPCR_BATCH_RNG_X86
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512dq");
  return ok;
#else
  return false;
#endif
}

void BatchRng::fill_exp_times(double* times, std::size_t count, double mean,
                              double& carry) {
  const std::size_t blocks = count / kLanes;
#if NDPCR_BATCH_RNG_X86
  if (vector_) {
    exp_fill_avx512(gap_state_, tail_, times, blocks, mean, carry);
  } else
#endif
  {
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      exp_block_scalar(gap_state_, tail_, mean, times + blk * kLanes, carry);
    }
  }
  const std::size_t rest = count - blocks * kLanes;
  if (rest > 0) {
    // One full lane step, first `rest` values kept - identical stream
    // whether or not the tail of a request is a whole block.
    double block[kLanes];
    double c = carry;
    exp_block_scalar(gap_state_, tail_, mean, block, c);
    for (std::size_t i = 0; i < rest; ++i) times[blocks * kLanes + i] = block[i];
    carry = block[rest - 1];
  }
}

void BatchRng::fill_below(std::uint32_t* out, std::size_t count,
                          std::uint32_t bound) {
  const std::size_t blocks = count / kLanes;
#if NDPCR_BATCH_RNG_X86
  if (vector_) {
    below_fill_avx512(pick_state_, bound, out, blocks);
  } else
#endif
  {
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      below_block_scalar(pick_state_, bound, out + blk * kLanes);
    }
  }
  const std::size_t rest = count - blocks * kLanes;
  if (rest > 0) {
    std::uint32_t block[kLanes];
    below_block_scalar(pick_state_, bound, block);
    for (std::size_t i = 0; i < rest; ++i) out[blocks * kLanes + i] = block[i];
  }
}

}  // namespace ndpcr
