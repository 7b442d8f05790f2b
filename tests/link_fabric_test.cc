/**
 * @file
 * Link-store and rotator word-drain tests.
 *
 * The rotation phase drains whole 64-channel dirty words and hands
 * each word's bitmask to the store's publishWord(), which runs the
 * lane-vector kernels of net/kernels.hh. These tests pin the edges of
 * that scheme directly against the stores: channels straddling a
 * word boundary, a last partial word with interleaved dirty/clean
 * channels and pad slots, and rotation resuming after a mid-window checkpoint restore. Each case
 * runs at every kernel level the build and CPU support, so the scalar
 * fallback and the SIMD bodies are held to the same observable
 * behavior in one process.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/link_fabric.hh"
#include "util/serialize.hh"
#include "util/simd.hh"

namespace locsim {
namespace net {
namespace {

/** Kernel levels reachable on this build + CPU (always has Off). */
std::vector<util::simd::Level>
reachableLevels()
{
    const util::simd::Level ambient = util::simd::activeLevel();
    std::vector<util::simd::Level> levels = {util::simd::Level::Off};
    if (ambient >= util::simd::Level::Sse2)
        levels.push_back(util::simd::Level::Sse2);
    if (ambient >= util::simd::Level::Avx2)
        levels.push_back(util::simd::Level::Avx2);
    return levels;
}

/** RAII: force a kernel level, restore the ambient one on exit. */
class LevelGuard
{
  public:
    explicit LevelGuard(util::simd::Level level)
        : ambient_(util::simd::activeLevel())
    {
        util::simd::setActiveLevelForTest(level);
    }
    ~LevelGuard() { util::simd::setActiveLevelForTest(ambient_); }

  private:
    util::simd::Level ambient_;
};

Flit
testFlit(std::uint32_t tag)
{
    Flit flit;
    flit.msg = tag;
    flit.src = 1;
    flit.dst = 2;
    flit.seq = static_cast<std::uint16_t>(tag & 0xffff);
    flit.head = true;
    flit.tail = true;
    flit.vc = 0;
    return flit;
}

/**
 * Channels on both sides of the 64-channel word boundary: pushes
 * stage into distinct dirty words, one rotation drains both words,
 * and exactly the pushed channels become visible.
 */
TEST(LinkRotator, DrainsChannelsStraddlingWordBoundary)
{
    for (const util::simd::Level level : reachableLevels()) {
        LevelGuard guard(level);
        FlitLinkStore store(4, 1, 70);
        std::vector<ChannelId> ids;
        for (int i = 0; i < 70; ++i)
            ids.push_back(store.add(0));
        // Dirty ids 60..69: bits 60..63 of word 0, 0..5 of word 1.
        for (ChannelId id = 60; id < 70; ++id)
            store.push(id, testFlit(id));
        for (ChannelId id = 0; id < 70; ++id)
            EXPECT_TRUE(store.empty(id)) << "pre-rotation id " << id;
        store.rotator(0)->rotate();
        for (ChannelId id = 0; id < 70; ++id) {
            if (id >= 60) {
                ASSERT_FALSE(store.empty(id)) << "id " << id;
                EXPECT_EQ(store.front(id).msg, id);
            } else {
                EXPECT_TRUE(store.empty(id)) << "id " << id;
            }
        }
    }
}

/**
 * Last-partial-word drain: with a channel count that is not a
 * multiple of 64, the tail word's high bits are pad slots. A drain of
 * an interleaved dirty pattern in that word publishes exactly the
 * dirty channels — clean neighbors and pad slots stay invisible, at
 * every kernel level (the vector bodies must not smear full-width
 * stores across clean channels).
 */
TEST(LinkRotator, LastPartialWordPublishesOnlyDirtyChannels)
{
    for (const util::simd::Level level : reachableLevels()) {
        LevelGuard guard(level);
        constexpr ChannelId kIds = 77; // word 1 holds 13 live channels
        FlitLinkStore store(4, 1, kIds);
        for (ChannelId i = 0; i < kIds; ++i)
            store.add(0);
        // Interleaved pattern across the whole store, denser in the
        // partial word so vector groups see full, partial and empty
        // masks.
        std::vector<bool> dirty(kIds, false);
        for (ChannelId id = 0; id < kIds; ++id) {
            if (id % 3 == 0 || id > 70) {
                dirty[id] = true;
                store.push(id, testFlit(id));
            }
        }
        store.rotator(0)->rotate();
        for (ChannelId id = 0; id < kIds; ++id) {
            if (dirty[id]) {
                ASSERT_FALSE(store.empty(id)) << "id " << id;
                EXPECT_EQ(store.front(id).msg, id);
                EXPECT_EQ(store.visibleCount(id), 1u);
            } else {
                EXPECT_TRUE(store.empty(id)) << "id " << id;
            }
        }
    }
}

/**
 * Rotation after a mid-window checkpoint restore: a channel saved
 * with staged (unpublished) flits restores into a fresh store, and
 * the next mark + rotate publishes exactly the staged suffix — the
 * restore must leave the cursor triplet in a state the word-drain
 * path continues from seamlessly.
 */
TEST(LinkRotator, RotationAfterMidWindowRestorePublishesStagedFlits)
{
    for (const util::simd::Level level : reachableLevels()) {
        LevelGuard guard(level);
        util::Serializer s;
        {
            FlitLinkStore store(8, 1, 66);
            for (int i = 0; i < 66; ++i)
                store.add(0);
            // Channel 65 (word 1): one visible, two staged.
            store.push(65, testFlit(1));
            store.rotator(0)->rotate();
            store.push(65, testFlit(2));
            store.push(65, testFlit(3));
            store.saveChannel(s, 65);
        }
        util::Deserializer d(s.buffer());
        FlitLinkStore restored(8, 1, 66);
        for (int i = 0; i < 66; ++i)
            restored.add(0);
        restored.loadChannel(d, 65);
        // Restored mid-window state: flit 1 visible, 2..3 staged.
        ASSERT_EQ(restored.visibleCount(65), 1u);
        EXPECT_EQ(restored.front(65).msg, 1u);
        // A fresh push re-marks the channel; the drain publishes the
        // restored staged flits together with the new one.
        restored.push(65, testFlit(4));
        restored.rotator(0)->rotate();
        ASSERT_EQ(restored.visibleCount(65), 4u);
        for (std::uint32_t i = 0; i < 4; ++i) {
            EXPECT_EQ(restored.at(65, restored.headCursor(65) + i).msg,
                      i + 1);
        }
    }
}

} // namespace
} // namespace net
} // namespace locsim
