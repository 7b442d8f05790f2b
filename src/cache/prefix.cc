/**
 * @file
 * PrefixPlanner implementation.
 *
 * The load-bearing invariant: every machine this file hands out is at
 * the same state, bit for bit, as a fresh machine advanced straight to
 * the warmup clock. Restores are followed by nothing — the checkpoint
 * IS the state — and production paths only ever compose restore +
 * advance, which tests/checkpoint_test.cc proves equivalent to a
 * straight advance.
 */

#include "cache/prefix.hh"

#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "cache/key.hh"

namespace locsim {
namespace cache {

namespace {

/** Build the machine a prefix image describes (no tracer/sampler:
 *  checkpoints require an unobserved machine; observers attach to the
 *  suffix run only, and sampled runs bypass the cache entirely). */
std::unique_ptr<machine::Machine>
freshMachine(const machine::MachineConfig &config,
             const workload::Mapping &mapping)
{
    machine::MachineConfig ckpt_config = config;
    ckpt_config.trace.enabled = false;
    ckpt_config.sample_period = 0;
    return std::make_unique<machine::Machine>(ckpt_config, mapping);
}

} // namespace

PrefixPlanner::PrefixPlanner(SimCache &store,
                             const PrefixOptions &options)
    : store_(store), options_(options)
{
}

std::vector<std::uint64_t>
PrefixPlanner::rungClocks(std::uint64_t warmup) const
{
    std::vector<std::uint64_t> clocks;
    const std::uint64_t stride = options_.rung_stride;
    if (stride == 0)
        return clocks;
    for (std::uint64_t clock = (warmup - 1) / stride * stride;
         clock > 0; clock -= stride)
        clocks.push_back(clock);
    return clocks;
}

std::unique_ptr<machine::Machine>
PrefixPlanner::produce(const machine::MachineConfig &config,
                       const workload::Mapping &mapping,
                       std::uint64_t warmup) const
{
    auto machine = freshMachine(config, mapping);
    std::uint64_t clock = 0;

    // Start from the longest stored rung below the warmup, if any.
    // A corrupt rung is dropped and the next-longest tried; clock 0
    // (a fresh machine) is always available.
    for (std::uint64_t rung : rungClocks(warmup)) {
        const std::string rung_key = prefixKey(config, mapping, rung);
        auto image = store_.lookupCheckpoint(rung_key);
        if (!image)
            continue;
        try {
            machine->restoreCheckpoint(*image);
            store_.getOrRunCheckpoint(rung_key,
                                      [&] { return *image; });
            clock = rung;
            break;
        } catch (const std::exception &) {
            store_.removeCheckpoint(rung_key);
            machine = freshMachine(config, mapping);
        }
    }

    // Advance rung to rung, materializing each image we pass so the
    // next near-miss warmup starts higher on the ladder.
    if (options_.rung_stride != 0) {
        const std::uint64_t stride = options_.rung_stride;
        for (std::uint64_t next = clock + stride; next < warmup;
             next += stride) {
            machine->advance(next - clock);
            clock = next;
            store_.getOrRunCheckpoint(
                prefixKey(config, mapping, clock),
                [&] { return machine->saveCheckpoint(); });
        }
    }
    if (warmup > clock)
        machine->advance(warmup - clock);
    return machine;
}

std::unique_ptr<machine::Machine>
PrefixPlanner::warmMachine(const machine::MachineConfig &config,
                           const workload::Mapping &mapping,
                           std::uint64_t warmup) const
{
    const std::string key = prefixKey(config, mapping, warmup);

    // Producer-reuse: when this caller wins the singleflight, it keeps
    // the machine it warmed and skips its own restore round trip;
    // every other caller (and every later process) restores from the
    // stored image.
    std::unique_ptr<machine::Machine> produced;
    auto image = store_.getOrRunCheckpoint(key, [&] {
        produced = produce(config, mapping, warmup);
        return produced->saveCheckpoint();
    });
    if (produced)
        return produced;

    auto machine = freshMachine(config, mapping);
    try {
        machine->restoreCheckpoint(image);
        return machine;
    } catch (const std::exception &) {
        // Corrupt stored image (truncated file, stale format): drop
        // it and recompute. The recompute stores a good image.
    }
    store_.removeCheckpoint(key);
    produced.reset();
    store_.getOrRunCheckpoint(key, [&] {
        produced = produce(config, mapping, warmup);
        return produced->saveCheckpoint();
    });
    if (produced)
        return produced;
    // Another thread re-produced it first; restore from its bytes.
    auto retried = store_.lookupCheckpoint(key);
    if (!retried)
        throw std::runtime_error(
            "prefix image vanished during corruption recovery: " +
            key);
    machine = freshMachine(config, mapping);
    machine->restoreCheckpoint(*retried);
    return machine;
}

std::vector<std::string>
PrefixPlanner::distinctPrefixes(
    const std::vector<PrefixPoint> &points) const
{
    std::vector<std::string> keys;
    std::unordered_set<std::string> seen;
    for (const PrefixPoint &point : points) {
        std::string key =
            prefixKey(*point.config, *point.mapping, point.warmup);
        if (seen.insert(key).second)
            keys.push_back(std::move(key));
    }
    return keys;
}

} // namespace cache
} // namespace locsim
