#pragma once

#include <cstddef>
#include <cstring>

namespace sidis::linalg {

/// Register-tile primitive for lane-parallel (struct-of-arrays) inner loops.
///
/// A Tile<W> holds W per-lane accumulators in vector registers and exposes
/// only elementwise operations, so each lane's IEEE arithmetic -- and
/// therefore its bits -- matches the corresponding scalar loop exactly.  The
/// point of the tile is WHERE the accumulators live: a lane-innermost loop
/// with memory accumulators re-loads and re-stores every partial sum on every
/// step and runs at store throughput; keeping a tile of lanes in registers
/// across the whole reduction runs at multiply-add throughput instead
/// (measured ~1.5-1.7x on the sparse CWT gather at baseline x86-64; a
/// 2-lane batch of the 6-class bench_batch model went from 0.49x to 1.35x
/// the scalar path once sub-16-lane remainders got tiles too).
///
/// GNU vector extensions compile to whatever vector ISA the target offers
/// (SSE2 on baseline x86-64, AVX/AVX-512 under SIDIS_NATIVE, NEON on
/// aarch64) without arch-specific intrinsics; other compilers fall back to
/// plain doubles the auto-vectorizer can still chew on.  Wider generic
/// vectors than the target's registers get scalarized through the stack at
/// baseline arch, which is slower than not tiling at all.
#if defined(__GNUC__) || defined(__clang__)
#define SIDIS_LANE_VEC 1
#if defined(__AVX512F__)
#define SIDIS_LANE_VEC_BYTES 64
#elif defined(__AVX__)
#define SIDIS_LANE_VEC_BYTES 32
#else
#define SIDIS_LANE_VEC_BYTES 16
#endif
#endif

/// Lanes covered by the widest tile.  Lane counts run in full tiles of this
/// width, then one tile each of 8, 4, 2 and 1 lanes as the remainder needs
/// (for_each_tile): the hierarchy's level 2 and 3 split a batch into
/// sub-batches of any width, so every width needs register tiles.
inline constexpr std::size_t kLaneTile = 16;

namespace lane_detail {
#ifdef SIDIS_LANE_VEC
typedef double LaneVec __attribute__((vector_size(SIDIS_LANE_VEC_BYTES)));
inline constexpr std::size_t kVecWidth = SIDIS_LANE_VEC_BYTES / sizeof(double);

inline LaneVec splat(double s) {
  LaneVec v;
  for (std::size_t i = 0; i < kVecWidth; ++i) v[i] = s;
  return v;
}

/// N doubles in one GNU vector.
template <std::size_t N>
struct Vec {
  typedef double type __attribute__((vector_size(N * sizeof(double))));
};
#else  // plain doubles, auto-vectorization only
inline constexpr std::size_t kVecWidth = 1;
template <std::size_t N>
struct Vec;
#endif
template <>
struct Vec<1> {
  using type = double;
};
}  // namespace lane_detail

/// W lanes' accumulators, as vectors no wider than W lanes and no wider
/// than the target's registers (Tile<1>: one plain double).  Only
/// elementwise operations, each the scalar loop's own IEEE operation on
/// every lane (a scalar operand broadcasts).
template <std::size_t W>
struct Tile {
  static_assert(W != 0 && (W & (W - 1)) == 0, "Tile width is a power of two");
  static constexpr std::size_t kLanes = W;
  static constexpr std::size_t kVecLanes =
      W < lane_detail::kVecWidth ? W : lane_detail::kVecWidth;
  using Vec = typename lane_detail::Vec<kVecLanes>::type;

  Vec v[W / kVecLanes] = {};

  void load(const double* p) { std::memcpy(v, p, sizeof(v)); }
  void store(double* p) const { std::memcpy(p, v, sizeof(v)); }

  /// v[l] += s * x[l] for each lane l.
  void mul_add(double s, const double* x) {
    for (std::size_t i = 0; i < W / kVecLanes; ++i) v[i] += s * at(x, i);
  }

  /// v[l] -= s * x[l] for each lane l.
  void mul_sub(double s, const double* x) {
    for (std::size_t i = 0; i < W / kVecLanes; ++i) v[i] -= s * at(x, i);
  }

  /// v[l] /= s for each lane l (a true division -- scalar paths divide, and
  /// multiplying by a reciprocal would round differently).
  void div(double s) {
    for (Vec& x : v) x /= s;
  }

 private:
  static Vec at(const double* x, std::size_t i) {
    Vec out;
    std::memcpy(&out, x + i * kVecLanes, sizeof(out));
    return out;
  }
};

/// Runs body(Tile<W>{}, l0) over lanes [0, lanes): full kLaneTile-wide
/// tiles first, then one 8-, 4-, 2- and 1-lane tile each as the remainder
/// needs.  The body gets a zeroed tile covering lanes [l0, l0 + W).
template <class Body>
void for_each_tile(std::size_t lanes, Body&& body) {
  std::size_t l0 = 0;
  for (; l0 + kLaneTile <= lanes; l0 += kLaneTile) body(Tile<kLaneTile>{}, l0);
  if (lanes - l0 >= 8) {
    body(Tile<8>{}, l0);
    l0 += 8;
  }
  if (lanes - l0 >= 4) {
    body(Tile<4>{}, l0);
    l0 += 4;
  }
  if (lanes - l0 >= 2) {
    body(Tile<2>{}, l0);
    l0 += 2;
  }
  if (lanes - l0 >= 1) body(Tile<1>{}, l0);
}

}  // namespace sidis::linalg
