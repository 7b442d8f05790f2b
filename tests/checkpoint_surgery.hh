/**
 * @file
 * Test helper: damage one node's cache section inside a machine
 * checkpoint image while leaving every other byte intact, so the
 * loader's own validation (not truncation or a bad header) is what
 * must reject the image.
 *
 * A cache section is a u64 set count, a u64 record count, then one
 * 22-byte record per touched set: u32 set index, u8 valid, u64 tag,
 * u8 state, u64 data.
 */

#ifndef LOCSIM_TESTS_CHECKPOINT_SURGERY_HH_
#define LOCSIM_TESTS_CHECKPOINT_SURGERY_HH_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "machine/machine.hh"
#include "util/serialize.hh"

namespace locsim {
namespace testing_ckpt {

constexpr std::size_t kCacheHeaderBytes = 16;
constexpr std::size_t kCacheRecordBytes = 22;

/** Ways to damage a cache section that still parse as integers. */
enum class CacheDamage {
    CountAboveSets,  //!< record count = sets + 1
    Unsorted,        //!< first two set indices swapped
    Duplicate,       //!< second record repeats the first set index
    IndexOutOfRange, //!< last record's set index = sets
};

inline const CacheDamage kAllCacheDamage[] = {
    CacheDamage::CountAboveSets, CacheDamage::Unsorted,
    CacheDamage::Duplicate, CacheDamage::IndexOutOfRange};

template <typename T>
void
overwrite(std::vector<std::uint8_t> &image, std::size_t pos, T value)
{
    util::Serializer s;
    s.put(value);
    ASSERT_LE(pos + s.buffer().size(), image.size());
    std::memcpy(image.data() + pos, s.buffer().data(), s.buffer().size());
}

/**
 * Copy of @p image with node @p node's cache section damaged as
 * @p damage says. @p source must hold the state @p image was saved
 * from (the saver itself, or a machine restored from the image); its
 * cache bytes locate the section, and it needs two or more records.
 */
inline std::vector<std::uint8_t>
damageCacheSection(const std::vector<std::uint8_t> &image,
                   machine::Machine &source, CacheDamage damage,
                   sim::NodeId node = 0)
{
    util::Serializer s;
    source.controller(node).cache().saveState(s);
    const std::vector<std::uint8_t> &section = s.buffer();
    const auto at =
        std::search(image.begin(), image.end(), section.begin(),
                    section.end());
    if (at == image.end()) {
        ADD_FAILURE() << "cache section not in the image";
        return image;
    }
    EXPECT_EQ(std::search(at + 1, image.end(), section.begin(),
                          section.end()),
              image.end())
        << "cache section is ambiguous in the image";
    const auto base = static_cast<std::size_t>(at - image.begin());

    util::Deserializer d(section);
    const auto sets = d.get<std::uint64_t>();
    const auto count = d.get<std::uint64_t>();
    std::vector<std::uint32_t> set_of;
    for (std::uint64_t i = 0; i < count; ++i) {
        set_of.push_back(d.get<std::uint32_t>());
        d.getBool();
        d.get<std::uint64_t>();
        d.get<std::uint8_t>();
        d.get<std::uint64_t>();
    }
    EXPECT_TRUE(d.atEnd());
    EXPECT_EQ(section.size(),
              kCacheHeaderBytes + count * kCacheRecordBytes);
    if (count < 2) {
        ADD_FAILURE() << "need two cache records to damage, have "
                      << count;
        return image;
    }
    auto setAt = [&](std::uint64_t record) {
        return base + kCacheHeaderBytes + record * kCacheRecordBytes;
    };

    std::vector<std::uint8_t> damaged = image;
    switch (damage) {
    case CacheDamage::CountAboveSets:
        overwrite<std::uint64_t>(damaged, base + 8, sets + 1);
        break;
    case CacheDamage::Unsorted:
        overwrite(damaged, setAt(0), set_of[1]);
        overwrite(damaged, setAt(1), set_of[0]);
        break;
    case CacheDamage::Duplicate:
        overwrite(damaged, setAt(1), set_of[0]);
        break;
    case CacheDamage::IndexOutOfRange:
        overwrite(damaged, setAt(count - 1),
                  static_cast<std::uint32_t>(sets));
        break;
    }
    EXPECT_NE(damaged, image);
    return damaged;
}

} // namespace testing_ckpt
} // namespace locsim

#endif // LOCSIM_TESTS_CHECKPOINT_SURGERY_HH_
