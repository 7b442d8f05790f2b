/**
 * @file
 * Scalar, SSE2 and AVX2 bodies of the lane-vector kernels.
 *
 * Every body of one kernel computes the same result; see kernels.hh
 * for the concurrency contract that shapes the store widths. The
 * compile-time ceiling (LOCSIM_SIMD_MAX) drops bodies the configure
 * option excluded, and non-x86 targets compile only the scalar ones.
 */

#include "net/kernels.hh"

#include <bit>

#if defined(__x86_64__) && LOCSIM_SIMD_MAX >= 1
#include <immintrin.h>
#define LOCSIM_KERNELS_X86 1
#else
#define LOCSIM_KERNELS_X86 0
#endif

namespace locsim {
namespace net {
namespace kernels {

namespace {

using util::simd::Level;

// --- scalar bodies ---------------------------------------------------

void
flitPublishScalar(std::uint32_t *mid, const std::uint32_t *tail,
                  std::uint64_t bits)
{
    while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        mid[b] = tail[b];
    }
}

void
latchBusyScalar(std::uint32_t *fws, std::uint32_t *fw,
                const std::uint32_t *buffered, std::size_t first,
                std::size_t last, std::uint8_t *out)
{
    for (std::size_t i = first; i < last; i += 8) {
        unsigned byte = 0;
        for (std::size_t j = 0; j < 8; ++j) {
            const std::size_t n = i + j;
            fw[n] |= fws[n];
            fws[n] = 0;
            if ((buffered[n] | fw[n]) != 0)
                byte |= 1u << j;
        }
        out[(i - first) >> 3] = static_cast<std::uint8_t>(byte);
    }
}

#if LOCSIM_KERNELS_X86

// --- SSE2 bodies (x86-64 baseline, no target attribute needed) -------

void
flitPublishSse2(std::uint32_t *mid, const std::uint32_t *tail,
                std::uint64_t bits)
{
    // SSE2 has no element-exact masked store, so full 128-bit stores
    // are only safe when all four channels of the group are dirty
    // (dirty implies owned by the publishing rotator); mixed groups
    // publish scalar. Batched lanes make the all-dirty case the
    // common one: a congested logical link dirties all K lanes of
    // its pow2-padded group together.
    for (int g = 0; bits != 0; ++g, bits >>= 4) {
        const auto m = static_cast<unsigned>(bits & 0xfu);
        if (m == 0)
            continue;
        if (m == 0xfu) {
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(mid + 4 * g),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(tail + 4 * g)));
        } else {
            unsigned mm = m;
            while (mm != 0) {
                const int b = std::countr_zero(mm);
                mm &= mm - 1;
                mid[4 * g + b] = tail[4 * g + b];
            }
        }
    }
}

void
latchBusySse2(std::uint32_t *fws, std::uint32_t *fw,
              const std::uint32_t *buffered, std::size_t first,
              std::size_t last, std::uint8_t *out)
{
    const __m128i zero = _mm_setzero_si128();
    for (std::size_t i = first; i < last; i += 8) {
        unsigned byte = 0;
        for (std::size_t h = 0; h < 8; h += 4) {
            const std::size_t n = i + h;
            __m128i f = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(fw + n));
            f = _mm_or_si128(
                f, _mm_loadu_si128(
                       reinterpret_cast<const __m128i *>(fws + n)));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(fw + n), f);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(fws + n),
                             zero);
            const __m128i b = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(buffered + n));
            const __m128i idle =
                _mm_cmpeq_epi32(_mm_or_si128(f, b), zero);
            const auto idle_mask = static_cast<unsigned>(
                _mm_movemask_ps(_mm_castsi128_ps(idle)));
            byte |= (~idle_mask & 0xfu) << h;
        }
        out[(i - first) >> 3] = static_cast<std::uint8_t>(byte);
    }
}

#if LOCSIM_SIMD_MAX >= 2

// --- AVX2 bodies -----------------------------------------------------

[[gnu::target("avx2")]] void
flitPublishAvx2(std::uint32_t *mid, const std::uint32_t *tail,
                std::uint64_t bits)
{
    // vpmaskmov stores are element-exact: channels of the word owned
    // by another shard's rotator are never written, whatever the
    // dirty pattern. Full-width tail loads are safe (rotation never
    // writes tail) and in-bounds (cursor arrays are word-padded).
    const __m256i sel =
        _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    for (int g = 0; bits != 0; ++g, bits >>= 8) {
        const auto m = static_cast<int>(bits & 0xffu);
        if (m == 0)
            continue;
        const __m256i mv = _mm256_cmpeq_epi32(
            _mm256_and_si256(_mm256_set1_epi32(m), sel), sel);
        const __m256i t = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tail + 8 * g));
        _mm256_maskstore_epi32(
            reinterpret_cast<int *>(mid + 8 * g), mv, t);
    }
}

[[gnu::target("avx2")]] void
latchBusyAvx2(std::uint32_t *fws, std::uint32_t *fw,
              const std::uint32_t *buffered, std::size_t first,
              std::size_t last, std::uint8_t *out)
{
    const __m256i zero = _mm256_setzero_si256();
    for (std::size_t i = first; i < last; i += 8) {
        __m256i f = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(fw + i));
        f = _mm256_or_si256(
            f, _mm256_loadu_si256(
                   reinterpret_cast<const __m256i *>(fws + i)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(fw + i), f);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(fws + i),
                            zero);
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(buffered + i));
        const __m256i idle =
            _mm256_cmpeq_epi32(_mm256_or_si256(f, b), zero);
        const auto idle_mask = static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(idle)));
        out[(i - first) >> 3] =
            static_cast<std::uint8_t>(~idle_mask & 0xffu);
    }
}

#endif // LOCSIM_SIMD_MAX >= 2
#endif // LOCSIM_KERNELS_X86

} // namespace

void
flitPublishWord(std::uint32_t *mid, const std::uint32_t *tail,
                std::uint64_t bits, Level level)
{
#if LOCSIM_KERNELS_X86
#if LOCSIM_SIMD_MAX >= 2
    if (level == Level::Avx2) {
        flitPublishAvx2(mid, tail, bits);
        return;
    }
#endif
    if (level >= Level::Sse2) {
        flitPublishSse2(mid, tail, bits);
        return;
    }
#else
    (void)level;
#endif
    flitPublishScalar(mid, tail, bits);
}

void
routerLatchBusy(std::uint32_t *flit_staged, std::uint32_t *flit_wake,
                const std::uint32_t *buffered, std::size_t first,
                std::size_t last, std::uint8_t *busy_bytes,
                Level level)
{
#if LOCSIM_KERNELS_X86
#if LOCSIM_SIMD_MAX >= 2
    if (level == Level::Avx2) {
        latchBusyAvx2(flit_staged, flit_wake, buffered, first, last,
                      busy_bytes);
        return;
    }
#endif
    if (level >= Level::Sse2) {
        latchBusySse2(flit_staged, flit_wake, buffered, first, last,
                      busy_bytes);
        return;
    }
#else
    (void)level;
#endif
    latchBusyScalar(flit_staged, flit_wake, buffered, first, last,
                    busy_bytes);
}

} // namespace kernels
} // namespace net
} // namespace locsim
