#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

namespace sidis::linalg {

/// Register-tile primitive for lane-parallel (struct-of-arrays) inner loops.
///
/// A Tile<W, VB> holds W per-lane accumulators in vector registers of VB
/// bytes and exposes only elementwise operations, so each lane's IEEE
/// arithmetic -- and therefore its bits -- matches the corresponding scalar
/// loop exactly.  The point of the tile is WHERE the accumulators live: a
/// lane-innermost loop with memory accumulators re-loads and re-stores every
/// partial sum on every step and runs at store throughput; keeping a tile of
/// lanes in registers across the whole reduction runs at multiply-add
/// throughput instead (measured ~1.5-1.7x on the sparse CWT gather at
/// baseline x86-64; a 2-lane batch of the 6-class bench_batch model went
/// from 0.49x to 1.35x the scalar path once sub-16-lane remainders got tiles
/// too).
///
/// GNU vector extensions compile to whatever vector ISA the target offers
/// (SSE2 on baseline x86-64, AVX/AVX-512 under SIDIS_NATIVE, NEON on
/// aarch64) without arch-specific intrinsics; other compilers fall back to
/// plain doubles the auto-vectorizer can still chew on.  Wider generic
/// vectors than the target's registers get scalarized through the stack, so
/// a kernel never instantiates them in code compiled for the build's own
/// ISA.
///
/// The width is picked at run time.  A kernel is a generic lambda over VB;
/// dispatch_lanes() runs it at 32 bytes (AVX2) when the build's vectors are
/// narrower and the CPU has AVX2, and at the build's width otherwise.  The
/// 32-byte instantiation is flattened into one function, the only one that
/// carries target("avx2"): no AVX2 code lands in a shared inline function,
/// whose one copy the linker keeps for the whole program.  That function
/// also pins -ffp-contract=off (GCC contracts across statements by default
/// in C++), and every tile operation keeps its multiply and its add in
/// separate statements (Clang contracts within one): a fused multiply-add
/// rounds once where the scalar loop rounds twice, which would fork the
/// batch path off the scalar one by a bit.
#if defined(__GNUC__) || defined(__clang__)
#define SIDIS_LANE_VEC 1
#if defined(__AVX512F__)
#define SIDIS_LANE_VEC_BYTES 64
#elif defined(__AVX__)
#define SIDIS_LANE_VEC_BYTES 32
#else
#define SIDIS_LANE_VEC_BYTES 16
#endif
#if SIDIS_LANE_VEC_BYTES < 32 && (defined(__x86_64__) || defined(__i386__))
#define SIDIS_LANE_AVX2_DISPATCH 1
#endif
#endif

/// Lanes covered by the widest tile.  Lane counts run in full tiles of this
/// width, then one tile each of 8, 4, 2 and 1 lanes as the remainder needs
/// (for_each_tile): the hierarchy's level 2 and 3 split a batch into
/// sub-batches of any width, so every width needs register tiles.
inline constexpr std::size_t kLaneTile = 16;

namespace lane_detail {
#ifdef SIDIS_LANE_VEC
/// The build's own vector width, in bytes.
inline constexpr std::size_t kBuildBytes = SIDIS_LANE_VEC_BYTES;
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
inline constexpr std::size_t kBuildBytes = sizeof(double);
inline constexpr std::size_t kVecWidth = 1;
template <std::size_t N>
struct Vec;
#endif
template <>
struct Vec<1> {
  using type = double;
};

/// The widest vector, in bytes, dispatch_lanes() may pick.  A test hook:
/// the batch tests lower it to run every kernel at each width the CPU
/// supports; nothing else writes it.
inline std::atomic<std::size_t> width_cap{SIZE_MAX};

#ifdef SIDIS_LANE_AVX2_DISPATCH
/// Asked once per process.
inline bool cpu_has_avx2() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
}

#if defined(__clang__)
#define SIDIS_LANE_AVX2_FN [[gnu::target("avx2"), gnu::flatten]]
#else
#define SIDIS_LANE_AVX2_FN \
  [[gnu::target("avx2"), gnu::flatten, gnu::optimize("fp-contract=off")]]
#endif

/// The kernel's 32-byte instantiation, with everything it calls inlined.
template <class Kernel>
SIDIS_LANE_AVX2_FN void run_avx2(Kernel& kernel) {
  kernel.template operator()<32>();
}
#undef SIDIS_LANE_AVX2_FN
#endif

/// The widest vector, in bytes, dispatch_lanes() can run on this CPU.
inline std::size_t widest_bytes() {
#ifdef SIDIS_LANE_AVX2_DISPATCH
  if (cpu_has_avx2()) return 32;
#endif
  return kBuildBytes;
}
}  // namespace lane_detail

/// f(0), f(1), ..., f(N - 1) as straight-line code.  A tile's vectors stay
/// in registers only while every access to them has a constant index; a
/// loop over them may instead become one memcpy or memset of the whole
/// array, through the stack.
template <std::size_t N, class F>
void unrolled(F&& f) {
  [&]<std::size_t... I>(std::index_sequence<I...>) { (f(I), ...); }(
      std::make_index_sequence<N>{});
}

/// W lanes' accumulators, as vectors no wider than W lanes and no wider
/// than VB bytes (Tile<1>: one plain double).  Only elementwise operations,
/// each the scalar loop's own IEEE operation on every lane (a scalar operand
/// broadcasts), the multiply and the add in separate statements.
template <std::size_t W, std::size_t VB = lane_detail::kBuildBytes>
struct Tile {
  static_assert(W != 0 && (W & (W - 1)) == 0, "Tile width is a power of two");
  static constexpr std::size_t kLanes = W;
  static constexpr std::size_t kVecLanes =
      W < VB / sizeof(double) ? W : VB / sizeof(double);
  /// Independent add chains: one per vector.
  static constexpr std::size_t kChains = W / kVecLanes;
  /// Independent sums a kernel runs side by side on this tile, so about
  /// eight add chains are in flight and a narrow tile stops waiting on add
  /// latency.
  static constexpr std::size_t kInterleave = kChains >= 8 ? 1 : 8 / kChains;
  using Vec = typename lane_detail::Vec<kVecLanes>::type;

  Vec v[kChains] = {};

  void load(const double* p) {
    unrolled<kChains>([&](std::size_t i) { read(v[i], p + i * kVecLanes); });
  }
  void store(double* p) const {
    unrolled<kChains>([&](std::size_t i) { write(p + i * kVecLanes, v[i]); });
  }

  /// v[l] += s * x[l] for each lane l.
  void mul_add(double s, const double* x) {
    unrolled<kChains>([&](std::size_t i) {
      Vec xi;
      read(xi, x + i * kVecLanes);
      const Vec p = s * xi;
      v[i] += p;
    });
  }

  /// v[l] += s * x.v[l] for each lane l (x already loaded).
  void mul_add(double s, const Tile& x) {
    unrolled<kChains>([&](std::size_t i) {
      const Vec p = s * x.v[i];
      v[i] += p;
    });
  }

  /// v[l] += x.v[l] * x.v[l] for each lane l.
  void add_square(const Tile& x) {
    unrolled<kChains>([&](std::size_t i) {
      const Vec p = x.v[i] * x.v[i];
      v[i] += p;
    });
  }

  /// v[l] -= s * x[l] for each lane l.
  void mul_sub(double s, const double* x) {
    unrolled<kChains>([&](std::size_t i) {
      Vec xi;
      read(xi, x + i * kVecLanes);
      const Vec p = s * xi;
      v[i] -= p;
    });
  }

  /// v[l] /= s for each lane l (a true division -- scalar paths divide, and
  /// multiplying by a reciprocal would round differently).
  void div(double s) {
    unrolled<kChains>([&](std::size_t i) { v[i] /= s; });
  }

 private:
  /// One vector's lanes from memory, and back (out-parameters: returning a
  /// 32-byte vector by value from code built without AVX changes the ABI).
  /// A one-lane vector is a plain double access, not a memcpy: GCC 12 keeps
  /// the target of an 8-byte memcpy in a general-purpose register, so a
  /// one-lane tile's running sum round-tripped through one on every step
  /// (vmovq %rax,%xmm; vsubsd; vmovq %xmm,%rax) and a one-lane Mahalanobis
  /// pass cost about twice the scalar loop.  Wider vectors keep the memcpy:
  /// their lanes are only double-aligned.
  static void read(Vec& x, const double* p) {
    if constexpr (kVecLanes == 1) {
      x = *p;
    } else {
      std::memcpy(&x, p, sizeof(x));
    }
  }
  static void write(double* p, const Vec& x) {
    if constexpr (kVecLanes == 1) {
      *p = x;
    } else {
      std::memcpy(p, &x, sizeof(x));
    }
  }
};

/// Runs body.template operator()<Tile<W, VB>>(l0) over lanes [0, lanes):
/// full kLaneTile-wide tiles first, then one 8-, 4-, 2- and 1-lane tile each
/// as the remainder needs.  The body covers lanes [l0, l0 + W).
template <std::size_t VB = lane_detail::kBuildBytes, class Body>
void for_each_tile(std::size_t lanes, Body&& body) {
  std::size_t l0 = 0;
  for (; l0 + kLaneTile <= lanes; l0 += kLaneTile) {
    body.template operator()<Tile<kLaneTile, VB>>(l0);
  }
  if (lanes - l0 >= 8) {
    body.template operator()<Tile<8, VB>>(l0);
    l0 += 8;
  }
  if (lanes - l0 >= 4) {
    body.template operator()<Tile<4, VB>>(l0);
    l0 += 4;
  }
  if (lanes - l0 >= 2) {
    body.template operator()<Tile<2, VB>>(l0);
    l0 += 2;
  }
  if (lanes - l0 >= 1) body.template operator()<Tile<1, VB>>(l0);
}

/// Runs kernel.template operator()<VB>() once, at the widest vector width
/// VB (bytes) this CPU and lane_detail::width_cap allow: 32 when the build's
/// vectors are narrower and the CPU has AVX2, the build's own otherwise.
/// The kernel passes VB on to for_each_tile.
template <class Kernel>
void dispatch_lanes(Kernel&& kernel) {
#ifdef SIDIS_LANE_AVX2_DISPATCH
  if (lane_detail::cpu_has_avx2() &&
      lane_detail::width_cap.load(std::memory_order_relaxed) >= 32) {
    lane_detail::run_avx2(kernel);
    return;
  }
#endif
  kernel.template operator()<lane_detail::kBuildBytes>();
}

}  // namespace sidis::linalg
