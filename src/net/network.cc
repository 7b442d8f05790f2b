/**
 * @file
 * Network fabric implementation.
 */

#include "net/network.hh"

#include <algorithm>
#include <bit>

#include "net/kernels.hh"
#include "obs/profiler.hh"
#include "util/logging.hh"

namespace locsim {
namespace net {

const char *
messageClassName(MessageClass cls)
{
    switch (cls) {
      case MessageClass::Generic:
        return "generic";
      case MessageClass::Request:
        return "request";
      case MessageClass::Reply:
        return "reply";
      case MessageClass::Inv:
        return "inv";
      case MessageClass::Writeback:
        return "writeback";
    }
    return "?";
}

namespace {

sim::NodeId
nodeCountFor(const NetworkConfig &config)
{
    sim::NodeId nodes = 1;
    for (int d = 0; d < config.dims; ++d)
        nodes *= static_cast<sim::NodeId>(config.radix);
    return nodes;
}

/** Flit links of a fabric: one per neighbor direction that has a
 *  neighbor, plus each node's injection and ejection links. */
std::size_t
flitLinkCount(const TorusTopology &topo, int dims)
{
    std::size_t links = 0;
    for (sim::NodeId node = 0; node < topo.nodeCount(); ++node) {
        for (int dim = 0; dim < dims; ++dim) {
            for (int dir : {+1, -1}) {
                if (topo.neighbor(node, dim, dir) != sim::kNodeNone)
                    ++links;
            }
        }
        links += 2;
    }
    return links;
}

} // namespace

Network::Network(sim::Engine &engine, const NetworkConfig &config)
    : Network(config, std::vector<sim::Engine *>{&engine},
              ShardPlan::contiguous(nodeCountFor(config), 1))
{
}

Network::Network(const NetworkConfig &config,
                 const std::vector<sim::Engine *> &engines,
                 const ShardPlan &plan)
    : config_(config),
      topo_(config.radix, config.dims, config.wraparound),
      plan_(plan), engines_(engines),
      flit_store_(kLinkOccupancyBound, plan.shards,
                  flitLinkCount(topo_, config.dims))
{
    const sim::NodeId n = topo_.nodeCount();
    const int K = plan_.shards;
    LOCSIM_ASSERT(static_cast<int>(engines_.size()) == K,
                  "shard plan needs one engine per shard");
    LOCSIM_ASSERT(plan_.bounds.size() ==
                          static_cast<std::size_t>(K) + 1 &&
                      plan_.first(0) == 0 && plan_.last(K - 1) == n,
                  "shard plan does not cover the fabric");

    // Each shard engine rotates its slice of the flit store through
    // one batch rotator: channels register with the rotator of the
    // shard that PUSHES into them, so publication happens on the
    // producer's thread; cross-shard consumers learn about new
    // content through the remote wake words bound below.
    flit_store_.registerRotators(engines_);

    routers_.reserve(n);
    // Endpoint rings start empty and grow on demand to RingQueue's
    // minimum of 8 slots, then by doubling: a closed-loop client keeps
    // only a few messages queued per node, so pre-sizing them for
    // congested peaks would cost every node more than it ever holds.
    // Capacity is amortized state only (checkpoints serialize
    // contents), so sizing changes no observable behavior.
    endpoints_.resize(n);
    inject_link_.resize(n);
    eject_link_.resize(n);
    shards_.resize(static_cast<std::size_t>(K));
    for (int s = 0; s < K; ++s) {
        ShardState &shard = shards_[static_cast<std::size_t>(s)];
        const auto shard_nodes =
            static_cast<std::size_t>(plan_.last(s) - plan_.first(s));
        // A shard's records name messages sourced or delivered at its
        // own nodes, so the map is sized by the shard, not the fabric.
        shard.records.reserve(shard_nodes * 8);
        const std::size_t words = (shard_nodes + 31u) / 32u;
        shard.eject_work.assign(words, 0u);
        shard.inject_work.assign(words, 0u);
        shard.outbox.assign(static_cast<std::size_t>(K), nullptr);
    }
    const std::size_t boxes =
        static_cast<std::size_t>(K) * static_cast<std::size_t>(K);
    for (auto &parity : record_mail_)
        parity.resize(boxes);
    // A sequential fabric posts into one box forever; a sharded one
    // re-points each shard's outboxes at the tick's parity.
    for (auto &parity : credit_mail_)
        parity.resize(boxes);
    shards_[0].outbox[0] = &credit_mail_[0][0];
    tracers_.assign(static_cast<std::size_t>(K), nullptr);
    node_tracks_.assign(n, -1);
    profile_slots_.assign(static_cast<std::size_t>(K), nullptr);
    for (int s = 0; s < K; ++s)
        shard_ticks_.push_back(std::make_unique<ShardTick>(*this, s));

    // Router state slabs, sized once before router construction (the
    // routers keep raw pointers into them).
    const int ports = 2 * config_.dims + 1;
    const int units = ports * config_.router.vcs;
    const std::size_t vc_cap = Router::vcRingCapacity(config_.router);
    input_units_.resize(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(units));
    output_ports_.resize(static_cast<std::size_t>(n) *
                         static_cast<std::size_t>(ports));
    vc_slab_.resize(static_cast<std::size_t>(n) *
                    static_cast<std::size_t>(units) * vc_cap);
    // Wake/occupancy slabs, padded to whole groups of 8 so the latch
    // kernel's full-width accesses on the last group stay in bounds.
    // Pad words start zero and are never staged, so they always read
    // as idle.
    const std::size_t padded_nodes =
        (static_cast<std::size_t>(n) + 7u) & ~std::size_t{7};
    flit_wake_staged_.assign(padded_nodes, 0u);
    flit_wake_.assign(padded_nodes, 0u);
    buffered_slab_.assign(padded_nodes, 0u);

    for (sim::NodeId node = 0; node < n; ++node) {
        Router::RouterSlices slices;
        slices.inputs = input_units_.data() +
                        static_cast<std::size_t>(node) *
                            static_cast<std::size_t>(units);
        slices.outputs = output_ports_.data() +
                         static_cast<std::size_t>(node) *
                             static_cast<std::size_t>(ports);
        slices.vc_slots = vc_slab_.data() +
                          static_cast<std::size_t>(node) *
                              static_cast<std::size_t>(units) * vc_cap;
        slices.flit_wake_staged = flit_wake_staged_.data() + node;
        slices.flit_wake = flit_wake_.data() + node;
        slices.buffered = buffered_slab_.data() + node;
        slices.inject_bank = &endpoints_[node].inject_bank;
        routers_.push_back(arena_.make<Router>(
            topo_, node, config_.router, flit_store_, slices));
    }

    // Wire neighbor links. For each node and each (dim, dir) we create
    // the unidirectional flit channel node -> neighbor; the neighbor
    // returns its credits to node's output port as mail. The channel
    // leaving `node` on port p arrives at the neighbor on the port of
    // the opposite direction. Each link and each ejection link returns
    // at most one credit per cycle, which sizes the mailboxes.
    struct PortWiring
    {
        ChannelId in = kNoChannel;
        ChannelId out = kNoChannel;
        CreditReturn credit_up;
    };
    std::vector<std::size_t> box_bound(boxes, 0);
    std::vector<std::vector<PortWiring>> wiring(
        n, std::vector<PortWiring>(static_cast<std::size_t>(ports)));

    for (sim::NodeId node = 0; node < n; ++node) {
        for (int dim = 0; dim < config_.dims; ++dim) {
            for (int dir : {+1, -1}) {
                const sim::NodeId nbr = topo_.neighbor(node, dim, dir);
                if (nbr == sim::kNodeNone)
                    continue; // mesh edge: no link in this direction
                // Flits are pushed by node's router; credits are
                // returned by the neighbor's.
                const ChannelId flits = flit_store_.add(shardOf(node));
                const auto out_port =
                    static_cast<std::size_t>(Router::portFor(dim, dir));
                const auto in_port = static_cast<std::size_t>(
                    Router::portFor(dim, -dir));
                wiring[node][out_port].out = flits;
                wiring[nbr][in_port].in = flits;
                wiring[nbr][in_port].credit_up = CreditReturn{
                    node, static_cast<std::uint8_t>(out_port),
                    static_cast<std::uint16_t>(shardOf(node))};
                ++box_bound[static_cast<std::size_t>(
                    shardOf(node) * K + shardOf(nbr))];
            }
        }
        // Local (node <-> router) channels; endpoint and router are
        // always co-sharded. The router banks injection credits
        // directly; ejection credits return as mail.
        const auto local =
            static_cast<std::size_t>(2 * config_.dims);
        const int s = shardOf(node);
        inject_link_[node] = flit_store_.add(s);
        eject_link_[node] = flit_store_.add(s);
        wiring[node][local].in = inject_link_[node];
        wiring[node][local].out = eject_link_[node];
        ++box_bound[static_cast<std::size_t>(s * K + s)];
        // A push onto the ejection link marks the endpoint's work bit;
        // the flit is visible by the next ejection phase.
        const sim::NodeId rel = node - plan_.first(s);
        flit_store_.bindWake(
            eject_link_[node],
            &shards_[static_cast<std::size_t>(s)].eject_work[rel >> 5],
            1u << (rel & 31u));

        endpoints_[node].inject_credits = config_.router.buffer_depth;
    }
    for (auto &parity : credit_mail_) {
        for (std::size_t b = 0; b < parity.size(); ++b)
            parity[b].mail.reserve(box_bound[b]);
    }

    for (sim::NodeId node = 0; node < n; ++node) {
        for (int port = 0; port < ports; ++port) {
            const auto &w =
                wiring[node][static_cast<std::size_t>(port)];
            routers_[node]->connect(port, w.in, w.out, w.credit_up);
        }
    }

    // Re-bind the wakes of shard-crossing flit links to the consumer
    // router's atomic remote word (connect() above bound them to the
    // plain staged words, which are only safe within one shard). The
    // bit is the consumer-side port, mirroring Router::connect.
    if (K > 1) {
        for (sim::NodeId node = 0; node < n; ++node) {
            for (int dim = 0; dim < config_.dims; ++dim) {
                for (int dir : {+1, -1}) {
                    const sim::NodeId nbr =
                        topo_.neighbor(node, dim, dir);
                    if (nbr == sim::kNodeNone ||
                        shardOf(nbr) == shardOf(node)) {
                        continue;
                    }
                    const auto out_port = static_cast<std::size_t>(
                        Router::portFor(dim, dir));
                    const auto in_port = static_cast<std::size_t>(
                        Router::portFor(dim, -dir));
                    // Flit channel node -> nbr wakes nbr's router.
                    flit_store_.bindRemoteWake(
                        wiring[node][out_port].out,
                        &routers_[nbr]->remoteFlitWakeWord(),
                        1u << in_port);
                }
            }
        }
    }

    // Kernel-path metadata, fixed once all remote wake bindings are
    // known: each shard's list of routers with cross-shard producers
    // (their atomics are drained scalar before the vector latch) and
    // its busy-byte scratch, one byte per group of 8 nodes the latch
    // kernel can touch (shard boundaries round outward to group
    // boundaries; the kernel itself peels the shared edge groups to
    // scalar). Sized here so the steady-state loop never allocates.
    simd_level_ = util::simd::activeLevel();
    remote_nodes_.resize(static_cast<std::size_t>(K));
    busy_scratch_.resize(static_cast<std::size_t>(K));
    for (int s = 0; s < K; ++s) {
        const sim::NodeId lo = plan_.first(s);
        const sim::NodeId hi = plan_.last(s);
        for (sim::NodeId node = lo; node < hi; ++node) {
            if (routers_[node]->hasRemoteWakes()) {
                remote_nodes_[static_cast<std::size_t>(s)].push_back(
                    node);
            }
        }
        const std::size_t groups =
            hi > lo ? (static_cast<std::size_t>(hi - 1) / 8 -
                       static_cast<std::size_t>(lo) / 8 + 1)
                    : 0;
        busy_scratch_[static_cast<std::size_t>(s)].assign(groups, 0u);
    }
}

Network::~Network() = default;

sim::Clocked *
Network::shardClocked(int s)
{
    return shard_ticks_[static_cast<std::size_t>(s)].get();
}

std::int64_t
Network::inFlight() const
{
    std::int64_t total = 0;
    for (const ShardState &shard : shards_)
        total += shard.in_flight;
    return total;
}

std::uint64_t
Network::pendingDeliveries() const
{
    std::int64_t total = 0;
    for (const ShardState &shard : shards_)
        total += shard.pending_deliveries;
    return static_cast<std::uint64_t>(total);
}

MessageId
Network::send(Message msg)
{
    LOCSIM_ASSERT(msg.src < topo_.nodeCount(), "bad source node");
    LOCSIM_ASSERT(msg.dst < topo_.nodeCount(), "bad destination node");
    LOCSIM_ASSERT(msg.src != msg.dst,
                  "local transactions must not enter the network");
    LOCSIM_ASSERT(msg.flits >= 1, "message needs at least one flit");
    LOCSIM_ASSERT(msg.flits <= 65535,
                  "flit sequence numbers are 16-bit");

    const int s = shardOf(msg.src);
    ShardState &shard = shards_[static_cast<std::size_t>(s)];
    NodeEndpoint &ep = endpoints_[msg.src];

    // Ids are per-source sequences with the source node in the high
    // bits: assignment touches only source-shard state and yields the
    // same id for the same message at any shard count.
    msg.id = (static_cast<MessageId>(msg.src) << 40) | ++ep.next_seq;
    msg.submit_tick = engines_[static_cast<std::size_t>(s)]->now();

    // Pool slots are recycled without destruction; reset every field.
    const RecordHandle h = shard.record_pool.alloc();
    MessageRecord &record = shard.record_pool.get(h);
    record = MessageRecord{};
    record.message = msg;
    record.hops = topo_.distance(msg.src, msg.dst);
    shard.records.insert(msg.id, h);

    ep.source_queue.push_back(msg);
    const sim::NodeId rel = msg.src - plan_.first(s);
    shard.inject_work[rel >> 5] |= 1u << (rel & 31u);
    ++shard.stats.messages_sent;
    shard.stats.flits.add(static_cast<double>(msg.flits));
    ++shard.in_flight;
    if (obs::Tracer *tracer = tracerFor(s)) {
        tracer->asyncBegin(
            node_tracks_[msg.src], msg.submit_tick, msg.id, "msg",
            obs::Category::Net,
            std::move(obs::Args()
                          .add("dst", static_cast<std::int64_t>(msg.dst))
                          .add("flits", msg.flits)
                          .add("class", messageClassName(msg.cls)))
                .str());
    }
    return msg.id;
}

std::optional<Message>
Network::receive(sim::NodeId node)
{
    auto &delivered = endpoints_[node].delivered;
    if (delivered.empty())
        return std::nullopt;
    Message msg = delivered.front();
    delivered.pop_front();
    ShardState &shard =
        shards_[static_cast<std::size_t>(shardOf(node))];
    --shard.pending_deliveries;
    // Accounting for this message is complete; drop the record so
    // long runs do not accumulate unbounded history.
    if (const RecordHandle *hp = shard.records.find(msg.id)) {
        const RecordHandle h = *hp;
        shard.records.erase(msg.id);
        shard.record_pool.free(h);
    }
    return msg;
}

std::size_t
Network::pendingAt(sim::NodeId node) const
{
    return endpoints_[node].delivered.size();
}

bool
Network::idle() const
{
    return inFlight() == 0;
}

bool
Network::tickInjection(sim::NodeId node, sim::Tick now)
{
    NodeEndpoint &ep = endpoints_[node];

    if (ep.source_queue.empty())
        return false;

    // Collect returned injection credits. Credits bank up while the
    // node has nothing to send, so collecting them lazily (only when
    // a message wants to inject) is equivalent to collecting every
    // cycle.
    ep.inject_credits += std::exchange(ep.inject_bank, 0);
    LOCSIM_ASSERT(ep.inject_credits <= config_.router.buffer_depth,
                  "injection credit overflow at node ", node);

    if (ep.inject_credits == 0)
        return true;

    Message &msg = ep.source_queue.front();
    if (ep.flits_sent == 0) {
        const int s = shardOf(node);
        ShardState &shard = shards_[static_cast<std::size_t>(s)];
        RecordHandle *hp = shard.records.find(msg.id);
        LOCSIM_ASSERT(hp != nullptr, "missing message record");
        MessageRecord &rec = shard.record_pool.get(*hp);
        if (rec.inject_start == sim::kTickNever) {
            rec.inject_start = now;
            if (obs::Tracer *tracer = tracerFor(s)) {
                tracer->instant(
                    node_tracks_[node], now, "inject",
                    obs::Category::Net,
                    std::move(obs::Args().add("msg", msg.id)).str());
            }
            // Hand the record to the destination shard (it harvests
            // the head counters and closes out the message). Posted
            // into this tick's parity; drained by the destination at
            // the start of the next tick, at least one cycle before
            // the head flit can eject there. The record travels by
            // value and its source-shard pool slot is recycled.
            const int ds = shardOf(msg.dst);
            if (ds != s) {
                auto &box = record_mail_[now & 1][static_cast<
                    std::size_t>(ds * plan_.shards + s)];
                box.push_back(rec);
                const RecordHandle h = *hp;
                shard.records.erase(msg.id);
                shard.record_pool.free(h);
            }
        }
    }

    Flit flit;
    flit.msg = msg.id;
    flit.src = msg.src;
    flit.dst = msg.dst;
    flit.seq = static_cast<std::uint16_t>(ep.flits_sent);
    flit.head = ep.flits_sent == 0;
    flit.tail = ep.flits_sent + 1 == msg.flits;
    flit.vc = 0;
    flit_store_.push(inject_link_[node], flit);
    --ep.inject_credits;
    ++ep.flits_sent;

    if (ep.flits_sent == msg.flits) {
        ep.source_queue.pop_front();
        ep.flits_sent = 0;
    }
    return !ep.source_queue.empty();
}

bool
Network::tickEjection(sim::NodeId node, sim::Tick now)
{
    NodeEndpoint &ep = endpoints_[node];
    const ChannelId link = eject_link_[node];

    // The node drains one flit per network cycle (an 8-bit channel
    // delivers one flit per cycle, Section 3.1).
    if (flit_store_.empty(link))
        return false;
    Flit flit = flit_store_.pop(link);
    const int s = shardOf(node);
    ShardState &shard = shards_[static_cast<std::size_t>(s)];
    shard.outbox[static_cast<std::size_t>(s)]->mail.push_back(
        {node, static_cast<std::uint8_t>(2 * config_.dims), flit.vc});
    const bool more = !flit_store_.empty(link);

    // Wormhole ejection delivers one message head-to-tail at a time
    // (the ejection output VC is owned until the tail), so the
    // reassembly cursor is two scalars rather than a map.
    if (ep.arrived_count == 0)
        ep.arrived_msg = flit.msg;
    LOCSIM_ASSERT(ep.arrived_msg == flit.msg,
                  "interleaved ejection at node ", node, ": msg ",
                  flit.msg, " while reassembling ", ep.arrived_msg);
    LOCSIM_ASSERT(flit.seq == ep.arrived_count,
                  "flit reordering within a wormhole message: msg ",
                  flit.msg, " expected seq ", ep.arrived_count,
                  " got ", flit.seq);
    ++ep.arrived_count;

    if (flit.head) {
        // Harvest the head flit's attribution counters; body flits
        // follow the opened path and carry none.
        RecordHandle *hp = shard.records.find(flit.msg);
        LOCSIM_ASSERT(hp != nullptr, "head for unknown message");
        MessageRecord &hrec = shard.record_pool.get(*hp);
        hrec.head_hops = flit.hops;
        hrec.head_stalls = flit.stalls;
    }

    if (!flit.tail)
        return more;

    RecordHandle *hp = shard.records.find(flit.msg);
    LOCSIM_ASSERT(hp != nullptr, "tail for unknown message");
    MessageRecord &rec = shard.record_pool.get(*hp);
    LOCSIM_ASSERT(ep.arrived_count == rec.message.flits,
                  "tail arrived before all flits: msg ", flit.msg);
    LOCSIM_ASSERT(rec.message.dst == node, "message misrouted: msg ",
                  flit.msg, " for node ", rec.message.dst,
                  " ejected at ", node);

    rec.delivered = now;
    ep.arrived_count = 0;
    ep.delivered.push_back(rec.message);
    ++shard.pending_deliveries;

    ++shard.stats.messages_delivered;
    --shard.in_flight;
    const double latency =
        static_cast<double>(rec.delivered - rec.inject_start);
    shard.stats.latency.add(latency);
    shard.stats.latency_hist.add(latency);
    shard.stats.source_queue.add(static_cast<double>(
        rec.inject_start - rec.message.submit_tick));
    shard.stats.hops.add(static_cast<double>(rec.hops));

    // Latency decomposition (see ClassAttribution): the network_test
    // zero-load identity is T = B + h + 1, so the contention residual
    // is exactly zero on an uncontended path.
    const double serialization =
        static_cast<double>(rec.message.flits);
    const double measured_hops = static_cast<double>(rec.head_hops);
    const double contention = std::max(
        0.0, latency - serialization - measured_hops - 1.0);
    ClassAttribution &attr = shard.stats.attribution[
        static_cast<std::size_t>(rec.message.cls)];
    ++attr.count;
    attr.latency += latency;
    attr.serialization += serialization;
    attr.hops += measured_hops;
    attr.contention += contention;
    attr.stalls += static_cast<double>(rec.head_stalls);

    if (obs::Tracer *tracer = tracerFor(s)) {
        // Cross-shard message lifetimes end on the destination
        // shard's tracer (emission must stay thread-local), so the
        // span lands on the destination's track there.
        const int track = shardOf(rec.message.src) == s
                              ? node_tracks_[rec.message.src]
                              : node_tracks_[node];
        tracer->asyncEnd(
            track, rec.delivered, flit.msg, "msg", obs::Category::Net,
            std::move(obs::Args()
                          .add("latency", latency)
                          .add("hops", static_cast<int>(rec.head_hops))
                          .add("stalls",
                               static_cast<int>(rec.head_stalls)))
                .str());
    }
    return more;
}

void
Network::drainRecordMail(int dst_shard, sim::Tick now)
{
    // Records posted during tick t live in parity t&1; at tick t+1
    // that is the opposite parity from the one being posted into, so
    // this drain and concurrent posts never touch the same cell.
    const int K = plan_.shards;
    auto &parity = record_mail_[(now + 1) & 1];
    ShardState &shard = shards_[static_cast<std::size_t>(dst_shard)];
    for (int src = 0; src < K; ++src) {
        auto &box =
            parity[static_cast<std::size_t>(dst_shard * K + src)];
        if (box.empty())
            continue;
        for (MessageRecord &rec : box) {
            const RecordHandle h = shard.record_pool.alloc();
            shard.record_pool.get(h) = rec;
            shard.records.insert(rec.message.id, h);
        }
        box.clear();
    }
}

CreditBox &
Network::creditBox(int dst, int src, sim::Tick next)
{
    const int K = plan_.shards;
    if (K == 1)
        return credit_mail_[0][0];
    // Mail posted during tick t sits in parity t&1 until tick t+1.
    return credit_mail_[(next + 1) & 1]
                       [static_cast<std::size_t>(dst * K + src)];
}

void
Network::applyCreditMail(CreditBox &box)
{
    for (const CreditMail &m : box.mail)
        routers_[m.node]->receiveCredit(m.port, m.vc);
    box.mail.clear();
}

void
Network::drainCreditMail(int s, sim::Tick now)
{
    // Same parity discipline as drainRecordMail: the boxes read here
    // are never the ones this tick posts into.
    for (int src = 0; src < plan_.shards; ++src)
        applyCreditMail(creditBox(s, src, now));
}

void
Network::drainAllCreditMail(int s)
{
    // Only a quiescence skip calls this, while no shard posts; credit
    // application commutes, so draining both parities at once equals
    // draining them at their own ticks.
    const int K = plan_.shards;
    for (auto &parity : credit_mail_) {
        for (int src = 0; src < K; ++src) {
            applyCreditMail(
                parity[static_cast<std::size_t>(s * K + src)]);
        }
    }
}

namespace {

/**
 * Visit the set bits of a shard's work bitset in ascending node
 * order, calling @p tick(node) for each and clearing the bit when it
 * returns false (the endpoint ran out of work).
 */
template <typename Fn>
void
visitWork(std::vector<std::uint32_t> &words, sim::NodeId first,
          Fn &&tick)
{
    for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint32_t bits = words[w];
        while (bits != 0) {
            const int b = std::countr_zero(bits);
            bits &= bits - 1;
            const auto node = static_cast<sim::NodeId>(
                first + w * 32 + static_cast<std::size_t>(b));
            if (!tick(node))
                words[w] &= ~(1u << b);
        }
    }
}

} // namespace

void
Network::tickShard(int s, sim::Tick now)
{
    obs::ScopedPhase profile(
        profile_slots_[static_cast<std::size_t>(s)],
        obs::Phase::RouterScan);

    const sim::NodeId lo = plan_.first(s);
    const sim::NodeId hi = plan_.last(s);
    ShardState &shard = shards_[static_cast<std::size_t>(s)];

    // Credits returned last cycle reach their routers before any
    // router ticks, exactly one cycle after they were posted.
    drainCreditMail(s, now);
    if (plan_.shards > 1) {
        for (int dst = 0; dst < plan_.shards; ++dst) {
            shard.outbox[static_cast<std::size_t>(dst)] =
                &credit_mail_[now & 1][static_cast<std::size_t>(
                    dst * plan_.shards + s)];
        }
        drainRecordMail(s, now);
    }
    // Ejection neither pushes into a router input nor reads a wake
    // word, so it may run before the latch.
    visitWork(shard.eject_work, lo, [&](sim::NodeId node) {
        return tickEjection(node, now);
    });

    // Latch the wake bits staged by last cycle's flit pushes
    // (including cross-shard pushes, via the routers' remote words)
    // before anything pushes this cycle: injection and router
    // traversal below stage wakes for the NEXT cycle, matching the
    // links' one-cycle latching delay. Busy is evaluated at latch time
    // rather than after injection; the two are identical because
    // injection only *stages* wakes (and buffered counts change only
    // inside router ticks), so nothing a dispatch decision depends on
    // moves in between.
    //
    // The latch runs as a lane-vector kernel over groups of 8
    // contiguous nodes, [vlo, vhi) at absolute offsets. The last shard
    // rounds up into the slab padding (pad words are never staged, so
    // they always evaluate idle); every other shard rounds inward and
    // peels its edge nodes to scalar — a boundary group can be shared
    // with a neighboring shard ticking concurrently, and only
    // whole-group ownership makes the vector read-modify-write
    // race-free. With LOCSIM_SIMD=off every node takes the scalar
    // latch, which CI diffs against the kernel byte for byte.
    auto &busy = busy_scratch_[static_cast<std::size_t>(s)];
    const auto lo_s = static_cast<std::size_t>(lo);
    const auto hi_s = static_cast<std::size_t>(hi);
    const std::size_t gfirst = lo_s / 8;
    const bool vector = simd_level_ != util::simd::Level::Off;
    const std::size_t vlo = vector ? (lo_s + 7u) & ~std::size_t{7} : hi_s;
    std::size_t vhi = !vector                   ? hi_s
                      : hi_s == routers_.size() ? (hi_s + 7u) & ~std::size_t{7}
                                                : hi_s & ~std::size_t{7};
    if (vhi < vlo)
        vhi = vlo;
    {
        obs::ScopedPhase kernel(
            vector ? profile_slots_[static_cast<std::size_t>(s)]
                   : nullptr,
            obs::Phase::RouterKernel);
        // Cross-shard wakes fold into the staged words first, so the
        // vector latch picks them up exactly as latchWakes() would
        // have (rotation is barrier-separated from this phase, so the
        // remote atomics are quiescent here).
        for (const sim::NodeId node :
             remote_nodes_[static_cast<std::size_t>(s)])
            routers_[node]->drainRemoteWakes();
        std::fill(busy.begin(), busy.end(), std::uint8_t{0});
        for (std::size_t node = lo_s; node < vlo && node < hi_s;
             ++node) {
            routers_[node]->latchWakes();
            if (routers_[node]->busy())
                busy[node / 8 - gfirst] |=
                    static_cast<std::uint8_t>(1u << (node & 7));
        }
        if (vhi > vlo) {
            kernels::routerLatchBusy(
                flit_wake_staged_.data(), flit_wake_.data(),
                buffered_slab_.data(), vlo, vhi,
                busy.data() + (vlo / 8 - gfirst), simd_level_);
        }
        for (std::size_t node = vhi; node < hi_s; ++node) {
            routers_[node]->latchWakes();
            if (routers_[node]->busy())
                busy[node / 8 - gfirst] |=
                    static_cast<std::uint8_t>(1u << (node & 7));
        }
    }
    visitWork(shard.inject_work, lo, [&](sim::NodeId node) {
        return tickInjection(node, now);
    });
    CreditBox *const *outbox = shard.outbox.data();
    // Dispatch straight off the busy bytes, in ascending node order.
    // An idle router's tick is a no-op (no buffered flits, nothing
    // visible on its channels, and its arbitration state is derived
    // from `now`), so skipping it cannot change behavior.
    for (std::size_t g = 0; g < busy.size(); ++g) {
        std::uint32_t bits = busy[g];
        while (bits != 0) {
            const int b = std::countr_zero(bits);
            bits &= bits - 1;
            const auto node = static_cast<sim::NodeId>(
                (gfirst + g) * 8 + static_cast<std::size_t>(b));
            routers_[node]->tick(now, outbox);
        }
    }
}

void
Network::tick(sim::Tick now)
{
    for (int s = 0; s < plan_.shards; ++s)
        tickShard(s, now);
}

void
NetworkStats::reset()
{
    messages_sent = 0;
    messages_delivered = 0;
    latency.reset();
    latency_hist.reset();
    source_queue.reset();
    hops.reset();
    flits.reset();
    attribution.fill({});
}

void
NetworkStats::merge(const NetworkStats &other)
{
    messages_sent += other.messages_sent;
    messages_delivered += other.messages_delivered;
    latency.merge(other.latency);
    latency_hist.merge(other.latency_hist);
    source_queue.merge(other.source_queue);
    hops.merge(other.hops);
    flits.merge(other.flits);
    for (std::size_t i = 0; i < attribution.size(); ++i) {
        const ClassAttribution &o = other.attribution[i];
        ClassAttribution &a = attribution[i];
        a.count += o.count;
        a.latency += o.latency;
        a.serialization += o.serialization;
        a.hops += o.hops;
        a.contention += o.contention;
        a.stalls += o.stalls;
    }
}

const NetworkStats &
Network::stats() const
{
    if (plan_.shards == 1)
        return shards_[0].stats;
    // Every per-shard field is a count or an exact sum (integer-valued
    // samples, see stats::Accumulator), so merging in shard order
    // reproduces the sequential accumulation bit-for-bit.
    merged_stats_.reset();
    for (const ShardState &shard : shards_)
        merged_stats_.merge(shard.stats);
    return merged_stats_;
}

void
Network::resetStats()
{
    for (ShardState &shard : shards_)
        shard.stats.reset();
    stats_start_ = engines_[0]->now();
    stats_flit_hops_base_ = totalNeighborFlitHops();
}

double
Network::channelUtilization() const
{
    const sim::Tick elapsed = engines_[0]->now() - stats_start_;
    if (elapsed == 0)
        return 0.0;
    // Exclude the local (ejection) port: model rho covers network
    // channels only.
    const std::uint64_t hops =
        totalNeighborFlitHops() - stats_flit_hops_base_;
    const double channels = static_cast<double>(topo_.nodeCount()) *
                            2.0 * static_cast<double>(config_.dims);
    return static_cast<double>(hops) /
           (static_cast<double>(elapsed) * channels);
}

const MessageRecord *
Network::record(MessageId id) const
{
    for (const ShardState &shard : shards_) {
        if (const RecordHandle *hp = shard.records.find(id))
            return &shard.record_pool.get(*hp);
    }
    for (const auto &parity : record_mail_) {
        for (const auto &box : parity) {
            for (const MessageRecord &rec : box) {
                if (rec.message.id == id)
                    return &rec;
            }
        }
    }
    return nullptr;
}

std::uint64_t
Network::totalNeighborFlitHops() const
{
    // Exclude the local (ejection) port: model rho covers network
    // channels only.
    const int neighbor_ports = 2 * config_.dims;
    std::uint64_t hops = 0;
    for (const Router *router : routers_) {
        for (int p = 0; p < neighbor_ports; ++p)
            hops += router->outputFlits(p).value();
    }
    return hops;
}

std::uint64_t
Network::totalAllocStalls() const
{
    std::uint64_t stalls = 0;
    for (const auto &router : routers_)
        stalls += router->allocStalls().value();
    return stalls;
}

std::uint64_t
Network::totalRemoteWakes() const
{
    std::uint64_t wakes = 0;
    for (const auto &router : routers_)
        wakes += router->remoteWakes();
    return wakes;
}

std::uint64_t
Network::bufferedFlits() const
{
    std::uint64_t flits = 0;
    for (const auto &router : routers_)
        flits += router->bufferedFlits();
    return flits;
}

std::size_t
Network::memoryBytes() const
{
    // Routers, input/output units and the vc slab are arena-backed;
    // arena_.bytesAllocated() covers them.
    std::size_t bytes = sizeof(*this) + arena_.bytesAllocated() +
                        input_units_.capacity() *
                            sizeof(Router::InputVc) +
                        output_ports_.capacity() *
                            sizeof(Router::OutputPort) +
                        vc_slab_.capacity() * sizeof(Flit);
    bytes += (flit_wake_staged_.capacity() + flit_wake_.capacity() +
              buffered_slab_.capacity()) *
             sizeof(std::uint32_t);
    for (const auto &scratch : busy_scratch_)
        bytes += scratch.capacity();
    bytes += flit_store_.memoryBytes();
    for (const auto &parity : credit_mail_) {
        for (const CreditBox &box : parity) {
            bytes += sizeof(CreditBox) +
                     box.mail.capacity() * sizeof(CreditMail);
        }
    }
    for (const NodeEndpoint &ep : endpoints_) {
        bytes += ep.source_queue.memoryBytes() +
                 ep.delivered.memoryBytes();
    }
    bytes += endpoints_.capacity() * sizeof(NodeEndpoint);
    for (const ShardState &shard : shards_) {
        bytes += shard.record_pool.memoryBytes() +
                 shard.records.memoryBytes() +
                 (shard.eject_work.capacity() +
                  shard.inject_work.capacity()) *
                     sizeof(std::uint32_t) +
                 shard.outbox.capacity() * sizeof(CreditBox *);
    }
    bytes += shards_.capacity() * sizeof(ShardState);
    return bytes;
}

namespace {

void
saveAttribution(util::Serializer &s, const ClassAttribution &attr)
{
    s.put(attr.count);
    s.putDouble(attr.latency);
    s.putDouble(attr.serialization);
    s.putDouble(attr.hops);
    s.putDouble(attr.contention);
    s.putDouble(attr.stalls);
}

void
loadAttribution(util::Deserializer &d, ClassAttribution &attr)
{
    attr.count = d.get<std::uint64_t>();
    attr.latency = d.getDouble();
    attr.serialization = d.getDouble();
    attr.hops = d.getDouble();
    attr.contention = d.getDouble();
    attr.stalls = d.getDouble();
}

} // namespace

void
NetworkStats::saveState(util::Serializer &s) const
{
    s.put(messages_sent);
    s.put(messages_delivered);
    latency.saveState(s);
    latency_hist.saveState(s);
    source_queue.saveState(s);
    hops.saveState(s);
    flits.saveState(s);
    for (const ClassAttribution &attr : attribution)
        saveAttribution(s, attr);
}

void
NetworkStats::loadState(util::Deserializer &d)
{
    messages_sent = d.get<std::uint64_t>();
    messages_delivered = d.get<std::uint64_t>();
    latency.loadState(d);
    latency_hist.loadState(d);
    source_queue.loadState(d);
    hops.loadState(d);
    flits.loadState(d);
    for (ClassAttribution &attr : attribution)
        loadAttribution(d, attr);
}

template <typename Fn>
void
Network::forEachCreditLink(Fn &&fn) const
{
    // Mirrors the constructor's wiring loop, which once created one
    // credit link per flit link, then the injection and ejection
    // endpoint links of each node.
    for (sim::NodeId node = 0; node < topo_.nodeCount(); ++node) {
        for (int dim = 0; dim < config_.dims; ++dim) {
            for (int dir : {+1, -1}) {
                if (topo_.neighbor(node, dim, dir) != sim::kNodeNone)
                    fn(node, Router::portFor(dim, dir));
            }
        }
        fn(node, -1);
        fn(node, 2 * config_.dims);
    }
}

std::size_t
Network::creditSlot(sim::NodeId node, int port, int vc) const
{
    const auto ports = static_cast<std::size_t>(2 * config_.dims + 1);
    return (static_cast<std::size_t>(node) * ports +
            static_cast<std::size_t>(port)) *
               static_cast<std::size_t>(config_.router.vcs) +
           static_cast<std::size_t>(vc);
}

std::vector<int>
Network::pendingCredits() const
{
    std::vector<int> pending(
        creditSlot(topo_.nodeCount(), 0, 0), 0);
    for (const auto &parity : credit_mail_) {
        for (const CreditBox &box : parity) {
            for (const CreditMail &m : box.mail)
                ++pending[creditSlot(m.node, m.port, m.vc)];
        }
    }
    return pending;
}

void
Network::saveState(util::Serializer &s) const
{
    for (const obs::Tracer *tracer : tracers_) {
        LOCSIM_ASSERT(tracer == nullptr,
                      "cannot checkpoint a traced network");
    }

    // Channels and routers serialize in construction order, which
    // depends only on the topology (never on the shard plan); router
    // state folds cross-shard wake words into their sequential
    // staged-word equivalents. The stream is therefore identical for
    // any shard count and restores at any other.
    for (ChannelId id = 0; id < flit_store_.channelCount(); ++id)
        flit_store_.saveChannel(s, id);

    // The credit section keeps the layout of the latched credit links
    // the fabric once had: per link and VC, a staged count (always 0
    // at a cycle boundary) and a visible count — the credits pending
    // in the mail for that output port, or the injection bank.
    const std::vector<int> pending = pendingCredits();
    const int vcs = config_.router.vcs;
    forEachCreditLink([&](sim::NodeId node, int port) {
        for (int vc = 0; vc < vcs; ++vc) {
            s.put(0);
            s.put(port < 0 ? (vc == 0 ? endpoints_[node].inject_bank : 0)
                           : pending[creditSlot(node, port, vc)]);
        }
    });
    for (const Router *router : routers_) {
        // Output ports with credit mail pending.
        std::uint32_t mail_ports = 0;
        for (int port = 0; port < router->portCount(); ++port) {
            for (int vc = 0; vc < vcs; ++vc) {
                if (pending[creditSlot(router->node(), port, vc)] != 0)
                    mail_ports |= 1u << port;
            }
        }
        router->saveState(s, mail_ports);
    }

    for (const NodeEndpoint &ep : endpoints_) {
        s.put<std::uint64_t>(ep.source_queue.size());
        for (std::size_t i = 0; i < ep.source_queue.size(); ++i)
            saveMessage(s, ep.source_queue[i]);
        s.put(ep.flits_sent);
        s.put(ep.inject_credits);
        s.put(ep.next_seq);
        s.put<std::uint64_t>(ep.delivered.size());
        for (std::size_t i = 0; i < ep.delivered.size(); ++i)
            saveMessage(s, ep.delivered[i]);
        // The reassembly cursor serializes as the (sorted) list of
        // in-progress messages it replaces: zero or one entry.
        const std::uint64_t arrived = ep.arrived_count > 0 ? 1 : 0;
        s.put<std::uint64_t>(arrived);
        if (arrived != 0) {
            s.put(ep.arrived_msg);
            s.put(ep.arrived_count);
        }
    }

    // Records: the union over shard pools and in-transit mailboxes,
    // sorted by id so the ordering is shard-count independent.
    std::vector<const MessageRecord *> records;
    for (const ShardState &shard : shards_) {
        shard.records.forEach(
            [&](const MessageId &, const RecordHandle &h) {
                records.push_back(&shard.record_pool.get(h));
            });
    }
    for (const auto &parity : record_mail_) {
        for (const auto &box : parity) {
            for (const MessageRecord &rec : box)
                records.push_back(&rec);
        }
    }
    std::sort(records.begin(), records.end(),
              [](const MessageRecord *a, const MessageRecord *b) {
                  return a->message.id < b->message.id;
              });
    s.put<std::uint64_t>(records.size());
    for (const MessageRecord *rec : records) {
        saveMessage(s, rec->message);
        s.put(rec->inject_start);
        s.put(rec->delivered);
        s.put(rec->hops);
        s.put(rec->head_hops);
        s.put(rec->head_stalls);
    }

    s.put<std::uint64_t>(static_cast<std::uint64_t>(inFlight()));
    s.put(pendingDeliveries());
    stats().saveState(s);
    s.put(stats_start_);
    s.put(stats_flit_hops_base_);
}

void
Network::loadState(util::Deserializer &d)
{
    for (ChannelId id = 0; id < flit_store_.channelCount(); ++id)
        flit_store_.loadChannel(d, id);

    // Rebuild the credit mail the next tick drains (see saveState).
    for (auto &parity : credit_mail_) {
        for (CreditBox &box : parity)
            box.mail.clear();
    }
    const sim::Tick next = engines_[0]->now();
    const int depth = config_.router.buffer_depth;
    forEachCreditLink([&](sim::NodeId node, int port) {
        const int s = shardOf(node);
        CreditBox &box = creditBox(s, s, next);
        int bank = 0;
        for (int vc = 0; vc < config_.router.vcs; ++vc) {
            const int staged = d.get<int>();
            const int visible = d.get<int>();
            if (staged != 0) {
                throw std::runtime_error(
                    "Network::loadState: staged credits at a cycle "
                    "boundary");
            }
            if (visible < 0 || visible > depth) {
                throw std::runtime_error(
                    "Network::loadState: pending credits outside "
                    "[0, buffer depth]");
            }
            bank += visible;
            for (int i = 0; port >= 0 && i < visible; ++i) {
                box.mail.push_back({node, static_cast<std::uint8_t>(port),
                                    static_cast<std::uint8_t>(vc)});
            }
        }
        if (port < 0)
            endpoints_[node].inject_bank = bank;
    });
    for (Router *router : routers_)
        router->loadState(d);
    // A credit applied on top of a full output VC would overflow it.
    const std::vector<int> pending = pendingCredits();
    for (const Router *router : routers_) {
        for (int port = 0; port < router->portCount(); ++port) {
            for (int vc = 0; vc < config_.router.vcs; ++vc) {
                if (router->credits(port, vc) +
                        pending[creditSlot(router->node(), port, vc)] >
                    depth) {
                    throw std::runtime_error(
                        "Network::loadState: pending credits overflow "
                        "an output VC");
                }
            }
        }
    }

    for (NodeEndpoint &ep : endpoints_) {
        ep.source_queue.clear();
        auto count = d.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < count; ++i)
            ep.source_queue.push_back(loadMessage(d));
        ep.flits_sent = d.get<std::uint32_t>();
        ep.inject_credits = d.get<int>();
        if (ep.inject_credits < 0 ||
            ep.inject_credits + ep.inject_bank > depth) {
            throw std::runtime_error(
                "Network::loadState: injection credits outside "
                "[0, buffer depth]");
        }
        ep.next_seq = d.get<std::uint64_t>();
        ep.delivered.clear();
        count = d.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < count; ++i)
            ep.delivered.push_back(loadMessage(d));
        count = d.get<std::uint64_t>();
        if (count > 1) {
            throw std::runtime_error(
                "Network::loadState: more than one message "
                "mid-ejection at a node");
        }
        ep.arrived_msg = 0;
        ep.arrived_count = 0;
        if (count == 1) {
            ep.arrived_msg = d.get<MessageId>();
            ep.arrived_count = d.get<std::uint32_t>();
        }
    }

    for (int s = 0; s < plan_.shards; ++s) {
        ShardState &shard = shards_[static_cast<std::size_t>(s)];
        shard.records.clear();
        shard.record_pool.clear();
        shard.in_flight = 0;
        shard.pending_deliveries = 0;
        shard.stats.reset();
        // Endpoint work bits are derived from the restored links and
        // queues.
        std::fill(shard.eject_work.begin(), shard.eject_work.end(), 0u);
        std::fill(shard.inject_work.begin(), shard.inject_work.end(),
                  0u);
        for (sim::NodeId node = plan_.first(s); node < plan_.last(s);
             ++node) {
            const sim::NodeId rel = node - plan_.first(s);
            if (!flit_store_.empty(eject_link_[node]))
                shard.eject_work[rel >> 5] |= 1u << (rel & 31u);
            if (!endpoints_[node].source_queue.empty())
                shard.inject_work[rel >> 5] |= 1u << (rel & 31u);
        }
    }
    for (auto &parity : record_mail_) {
        for (auto &box : parity)
            box.clear();
    }

    // Place each record where the current shard plan expects it: a
    // message not yet injected belongs to its source shard, anything
    // later to its destination shard. Records that were in-transit
    // mailbox mail at save time restore directly into the destination
    // map; the next drain simply finds the mailboxes empty.
    const auto record_count = d.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < record_count; ++i) {
        MessageRecord rec;
        rec.message = loadMessage(d);
        rec.inject_start = d.get<sim::Tick>();
        rec.delivered = d.get<sim::Tick>();
        rec.hops = d.get<int>();
        rec.head_hops = d.get<std::uint16_t>();
        rec.head_stalls = d.get<std::uint16_t>();
        const int s = rec.inject_start == sim::kTickNever
                          ? shardOf(rec.message.src)
                          : shardOf(rec.message.dst);
        ShardState &shard = shards_[static_cast<std::size_t>(s)];
        const RecordHandle h = shard.record_pool.alloc();
        shard.record_pool.get(h) = rec;
        shard.records.insert(rec.message.id, h);
    }

    // Global accounting and statistics restore into shard 0; the
    // serial-point sums (and the shard-ordered stats merge) are then
    // identical to the values saved.
    shards_[0].in_flight =
        static_cast<std::int64_t>(d.get<std::uint64_t>());
    shards_[0].pending_deliveries =
        static_cast<std::int64_t>(d.get<std::uint64_t>());
    shards_[0].stats.loadState(d);
    stats_start_ = d.get<sim::Tick>();
    stats_flit_hops_base_ = d.get<std::uint64_t>();
}

void
Network::setTracer(obs::Tracer *tracer)
{
    for (int s = 0; s < plan_.shards; ++s)
        setShardTracer(s, tracer);
}

void
Network::setProfiler(obs::Profiler *profiler)
{
    for (int s = 0; s < plan_.shards; ++s) {
        profile_slots_[static_cast<std::size_t>(s)] =
            profiler != nullptr ? &profiler->slot(s) : nullptr;
    }
}

void
Network::setShardTracer(int s, obs::Tracer *tracer)
{
    tracers_[static_cast<std::size_t>(s)] = tracer;
    for (sim::NodeId node = plan_.first(s); node < plan_.last(s);
         ++node) {
        if (tracer != nullptr && node_tracks_[node] < 0) {
            node_tracks_[node] =
                tracer->newTrack("net." + std::to_string(node));
        }
        routers_[node]->setTracer(
            tracer, tracer != nullptr ? node_tracks_[node] : 0);
    }
}

} // namespace net
} // namespace locsim
