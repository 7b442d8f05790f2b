/**
 * @file
 * Cache implementation.
 */

#include "coher/cache.hh"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hh"

namespace locsim {
namespace coher {

Cache::Cache(std::uint32_t cache_bytes)
{
    LOCSIM_ASSERT(cache_bytes >= kLineBytes &&
                      cache_bytes % kLineBytes == 0,
                  "cache size must be a positive multiple of the line "
                  "size, got ",
                  cache_bytes);
    sets_ = cache_bytes / kLineBytes;
}

std::uint32_t
Cache::setIndex(Addr addr) const
{
    // Direct-mapped, indexed by the node-local line offset (the low
    // half of the address); lines at the same local offset on
    // different homes conflict, as in a physically indexed cache.
    return lineIndexOf(addr) % sets_;
}

std::vector<Cache::Line>::iterator
Cache::lowerBound(std::uint32_t set)
{
    return std::lower_bound(
        lines_.begin(), lines_.end(), set,
        [](const Line &line, std::uint32_t key) { return line.set < key; });
}

Cache::Line *
Cache::find(std::uint32_t set)
{
    const auto it = lowerBound(set);
    return it != lines_.end() && it->set == set ? &*it : nullptr;
}

CacheLookup
Cache::lookup(Addr addr) const
{
    const Line *line = find(setIndex(addr));
    if (!line || !line->valid || line->addr != lineOf(addr))
        return {};
    return {line->state, line->data};
}

std::optional<Eviction>
Cache::fill(Addr addr, CacheState state, std::uint64_t data)
{
    LOCSIM_ASSERT(state != CacheState::Invalid,
                  "cannot fill a line Invalid");
    const std::uint32_t set = setIndex(addr);
    auto it = lowerBound(set);
    if (it == lines_.end() || it->set != set) {
        Line fresh; // first touch: insert in set order
        fresh.set = set;
        it = lines_.insert(it, fresh);
    }
    Line &line = *it;
    std::optional<Eviction> evicted;
    if (line.valid && line.addr != lineOf(addr)) {
        evicted = Eviction{line.addr, line.state, line.data};
    }
    line.valid = true;
    line.addr = lineOf(addr);
    line.state = state;
    line.data = data;
    return evicted;
}

void
Cache::setState(Addr addr, CacheState state)
{
    Line *line = find(setIndex(addr));
    LOCSIM_ASSERT(line && line->valid && line->addr == lineOf(addr),
                  "setState on a non-resident line");
    if (state == CacheState::Invalid) {
        line->valid = false;
        line->state = CacheState::Invalid;
    } else {
        line->state = state;
    }
}

void
Cache::writeData(Addr addr, std::uint64_t data)
{
    Line *line = find(setIndex(addr));
    LOCSIM_ASSERT(line && line->valid && line->addr == lineOf(addr) &&
                      line->state == CacheState::Modified,
                  "writeData requires a resident Modified line");
    line->data = data;
}

void
Cache::invalidate(Addr addr)
{
    Line *line = find(setIndex(addr));
    if (line && line->valid && line->addr == lineOf(addr)) {
        line->valid = false;
        line->state = CacheState::Invalid;
    }
}

std::uint32_t
Cache::residentLines() const
{
    std::uint32_t count = 0;
    for (const Line &line : lines_)
        count += line.valid ? 1 : 0;
    return count;
}

void
Cache::saveState(util::Serializer &s) const
{
    s.put<std::uint64_t>(sets_);
    s.put<std::uint64_t>(lines_.size());
    for (const Line &line : lines_) {
        s.put(line.set);
        s.put(line.valid);
        s.put(line.addr);
        s.put(line.state);
        s.put(line.data);
    }
}

void
Cache::loadState(util::Deserializer &d)
{
    if (d.get<std::uint64_t>() != sets_)
        throw std::runtime_error("Cache::loadState: geometry mismatch");
    const auto count = d.get<std::uint64_t>();
    if (count > sets_)
        throw std::runtime_error(
            "Cache::loadState: more records than sets");
    lines_.clear();
    lines_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        Line line;
        line.set = d.get<std::uint32_t>();
        if (line.set >= sets_)
            throw std::runtime_error(
                "Cache::loadState: set index out of range");
        if (!lines_.empty() && line.set <= lines_.back().set)
            throw std::runtime_error(
                "Cache::loadState: set indices not strictly ascending");
        line.valid = d.getBool();
        line.addr = d.get<Addr>();
        line.state = d.get<CacheState>();
        line.data = d.get<std::uint64_t>();
        lines_.push_back(line);
    }
}

} // namespace coher
} // namespace locsim
