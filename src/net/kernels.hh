/**
 * @file
 * Lane-vector kernels for the link-fabric and router hot paths.
 *
 * Two data-parallel passes dominate the fabric's per-cycle fixed
 * cost once the flit store is lane-striped SoA (link_fabric.hh):
 *
 *  - flit publish: mid = tail for every channel of one 64-bit dirty
 *    word (rotation phase),
 *  - router latch/busy scan: wake |= staged, staged = 0 per router
 *    word, plus the busy test (buffered | wake) != 0, for a shard's
 *    contiguous node range (start of every network cycle).
 *
 * Each kernel is compiled at scalar, SSE2 and AVX2 levels in one
 * binary (the AVX2 bodies carry gnu::target attributes) and selected
 * by the util::simd::Level the caller resolved at construction. All
 * levels compute bit-identical results; the vector bodies only ever
 * differ in how many elements one instruction touches.
 *
 * Concurrency contract (sharded rotation runs one rotator per shard
 * over a shared id space, and shard node ranges share cache lines at
 * their boundaries):
 *
 *  - flit publish: full-width loads of tail are safe (tail is only
 *    written during the tick phase, barrier-separated from rotation),
 *    but stores to mid MUST touch only the dirty channels — other
 *    channels of the word may belong to a concurrently publishing
 *    shard. The AVX2 body uses vpmaskmov stores (element-exact by
 *    ISA contract); the SSE2 body uses full 128-bit stores only when
 *    all four channels of the group are dirty (dirty implies owned)
 *    and falls back to scalar stores otherwise.
 *  - latch/busy: the caller peels the range to absolute multiples of
 *    the group size; partial boundary groups (which may share a
 *    vector with another shard's nodes) take the scalar path in the
 *    caller.
 */

#ifndef LOCSIM_NET_KERNELS_HH_
#define LOCSIM_NET_KERNELS_HH_

#include <cstddef>
#include <cstdint>

#include "util/simd.hh"

namespace locsim {
namespace net {
namespace kernels {

/**
 * Publish one dirty word of flit channels: mid[b] = tail[b] for every
 * set bit b of @p bits. @p mid and @p tail point at the word's first
 * channel; the store pads its cursor arrays to whole words, so all 64
 * slots are readable (only dirty ones are written).
 */
void flitPublishWord(std::uint32_t *mid, const std::uint32_t *tail,
                     std::uint64_t bits, util::simd::Level level);

/**
 * Latch staged router flit wakes and evaluate busy flags for the
 * absolute node range [first, last): wake |= exchange(staged, 0),
 * then busy = (buffered | flit_wake) != 0.
 * @p first and @p last must be multiples of 8 (the caller peels
 * boundary nodes scalar); busy bits land in @p busy_bytes, one byte
 * per group of 8 nodes, indexed by (node - first) / 8, bit (node % 8).
 */
void routerLatchBusy(std::uint32_t *flit_staged,
                     std::uint32_t *flit_wake,
                     const std::uint32_t *buffered, std::size_t first,
                     std::size_t last, std::uint8_t *busy_bytes,
                     util::simd::Level level);

} // namespace kernels
} // namespace net
} // namespace locsim

#endif // LOCSIM_NET_KERNELS_HH_
