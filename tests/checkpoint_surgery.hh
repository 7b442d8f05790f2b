/**
 * @file
 * Test helper: damage one node's cache section, or one field of the
 * network section, inside a machine checkpoint image while leaving
 * every other byte intact, so the loader's own validation (not
 * truncation or a bad header) is what must reject the image.
 *
 * A cache section is a u64 set count, a u64 record count, then one
 * 22-byte record per touched set: u32 set index, u8 valid, u64 tag,
 * u8 state, u64 data.
 *
 * A network section starts with every flit link (u64 head, mid and
 * tail cursors, then the held flits), then every credit link (per VC
 * an int staged and an int visible count), then every router (u64
 * unit count; per input unit u32 head and tail, the held flits, u8
 * routed and route_valid, int out_port and out_vc; u64 port count;
 * per output port and VC an int owner and credits, then int next_vc;
 * and so on).
 */

#ifndef LOCSIM_TESTS_CHECKPOINT_SURGERY_HH_
#define LOCSIM_TESTS_CHECKPOINT_SURGERY_HH_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "machine/machine.hh"
#include "net/message.hh"
#include "net/network.hh"
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

/**
 * Ways to damage a network section that still parse, one per field
 * the loader range-checks. "Router 0" fields belong to node 0's
 * router; "first" links are the first in stream order.
 */
enum class NetDamage {
    FlitLinkOverCapacity, //!< first flit link holds 256 flits
    FlitLinkCursorOrder,  //!< first flit link's mid cursor past tail
    CreditStaged,         //!< first credit link, VC 0: staged = 1
    CreditVisible,        //!< first credit link, VC 0: visible = depth+1
    VcOverDepth,          //!< router 0 unit 0 holds depth + 1 flits
    RoutePort,            //!< router 0 unit 0: out_port = port count
    RouteVc,              //!< router 0 unit 0: out_vc = VC count
    Owner,                //!< router 0 port 0 VC 0: owner = unit count
    Credits,              //!< router 0 port 0 VC 0: credits = depth+1
};

inline const NetDamage kAllNetDamage[] = {
    NetDamage::FlitLinkOverCapacity, NetDamage::FlitLinkCursorOrder,
    NetDamage::CreditStaged,         NetDamage::CreditVisible,
    NetDamage::VcOverDepth,          NetDamage::RoutePort,
    NetDamage::RouteVc,              NetDamage::Owner,
    NetDamage::Credits};

/**
 * Copy of @p image with one field of its network section damaged as
 * @p damage says. @p source must hold the state @p image was saved
 * from (as for damageCacheSection); its network bytes locate the
 * section.
 */
inline std::vector<std::uint8_t>
damageNetworkSection(const std::vector<std::uint8_t> &image,
                     machine::Machine &source, NetDamage damage)
{
    const net::Network &net = source.network();
    util::Serializer s;
    net.saveState(s);
    const std::vector<std::uint8_t> &section = s.buffer();
    const auto at =
        std::search(image.begin(), image.end(), section.begin(),
                    section.end());
    if (at == image.end()) {
        ADD_FAILURE() << "network section not in the image";
        return image;
    }
    const auto base = static_cast<std::size_t>(at - image.begin());

    const net::TorusTopology &topo = net.topology();
    const int vcs = net.config().router.vcs;
    const int depth = net.config().router.buffer_depth;
    const int ports = 2 * topo.dims() + 1;
    // One link per existing neighbor, plus injection and ejection.
    std::size_t links = 0;
    for (sim::NodeId node = 0; node < topo.nodeCount(); ++node) {
        for (int dim = 0; dim < topo.dims(); ++dim) {
            for (int dir : {+1, -1}) {
                if (topo.neighbor(node, dim, dir) != sim::kNodeNone)
                    ++links;
            }
        }
        links += 2;
    }
    util::Serializer one_flit;
    net::saveFlit(one_flit, net::Flit{});
    const std::size_t flit_bytes = one_flit.buffer().size();

    util::Deserializer d(section);
    auto pos = [&] { return base + section.size() - d.remaining(); };
    auto skip = [&](std::size_t bytes) {
        for (std::size_t i = 0; i < bytes; ++i)
            d.get<std::uint8_t>();
    };
    const std::size_t flit_link = pos();
    std::uint64_t first_head = 0;
    std::uint64_t first_tail = 0;
    for (std::size_t l = 0; l < links; ++l) {
        const auto head = d.get<std::uint64_t>();
        d.get<std::uint64_t>();
        const auto tail = d.get<std::uint64_t>();
        if (l == 0) {
            first_head = head;
            first_tail = tail;
        }
        skip(static_cast<std::size_t>(tail - head) * flit_bytes);
    }
    const std::size_t credit_link = pos();
    skip(links * static_cast<std::size_t>(vcs) * 2 * sizeof(int));
    d.get<std::uint64_t>(); // unit count
    const std::size_t unit = pos();
    const auto unit_head = d.get<std::uint32_t>();
    const auto unit_tail = d.get<std::uint32_t>();
    skip(static_cast<std::size_t>(unit_tail - unit_head) * flit_bytes);
    d.getBool();
    d.getBool();
    const std::size_t route = pos();
    // Walk the remaining units to reach output port 0.
    d.get<int>();
    d.get<int>();
    for (int u = 1; u < ports * vcs; ++u) {
        const auto h = d.get<std::uint32_t>();
        const auto t = d.get<std::uint32_t>();
        skip(static_cast<std::size_t>(t - h) * flit_bytes);
        d.getBool();
        d.getBool();
        d.get<int>();
        d.get<int>();
    }
    d.get<std::uint64_t>(); // port count
    const std::size_t owner = pos();

    std::vector<std::uint8_t> damaged = image;
    switch (damage) {
    case NetDamage::FlitLinkOverCapacity:
        overwrite<std::uint64_t>(damaged, flit_link + 16,
                                 first_head + 256);
        break;
    case NetDamage::FlitLinkCursorOrder:
        overwrite<std::uint64_t>(damaged, flit_link + 8,
                                 first_tail + 1);
        break;
    case NetDamage::CreditStaged:
        overwrite<int>(damaged, credit_link, 1);
        break;
    case NetDamage::CreditVisible:
        overwrite<int>(damaged, credit_link + sizeof(int), depth + 1);
        break;
    case NetDamage::VcOverDepth:
        overwrite<std::uint32_t>(
            damaged, unit + 4,
            unit_head + static_cast<std::uint32_t>(depth) + 1);
        break;
    case NetDamage::RoutePort:
        overwrite<int>(damaged, route, ports);
        break;
    case NetDamage::RouteVc:
        overwrite<int>(damaged, route + sizeof(int), vcs);
        break;
    case NetDamage::Owner:
        overwrite<int>(damaged, owner, ports * vcs);
        break;
    case NetDamage::Credits:
        overwrite<int>(damaged, owner + sizeof(int), depth + 1);
        break;
    }
    EXPECT_NE(damaged, image);
    return damaged;
}

} // namespace testing_ckpt
} // namespace locsim

#endif // LOCSIM_TESTS_CHECKPOINT_SURGERY_HH_
