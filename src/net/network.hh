/**
 * @file
 * The torus network fabric: routers, channels, per-node injection and
 * ejection interfaces, and network-level statistics.
 *
 * Sequential machines register the Network as a single Clocked
 * component ticking at the network clock (period 1). Sharded machines
 * partition the nodes into contiguous spatial shards, each driven by
 * its own engine: every router, endpoint, and channel belongs to
 * exactly one shard, and the per-shard adapter returned by
 * shardClocked() ticks just that shard's slice of the fabric. Clients
 * (coherence controllers, traffic generators) interact only through
 * send()/receive() on a node's interface; the fabric handles
 * flitization, wormhole transport, and reassembly.
 *
 * Data layout: all flit links live in one structure-of-arrays store
 * (FlitLinkStore) indexed by dense channel ids, all router input-VC /
 * output-port state lives in Network-owned slabs sliced per router,
 * and message accounting records live in per-shard generation-checked
 * pools indexed by a flat hash map. Credits travel as mail (see
 * CreditMail), and each shard ticks only the endpoints whose bits are
 * set in its work bitsets. The steady-state loop therefore walks
 * contiguous arrays and recycles pooled records without touching the
 * allocator.
 *
 * Cross-shard state is limited to four mechanisms, all designed so
 * results are bit-identical to the sequential fabric for any shard
 * count (see docs/SHARDING.md for the full argument):
 *
 *  - Flit links crossing a shard boundary deliver their consumer wake
 *    bits atomically during the rotation phase (see
 *    WakeBinding::bindRemote), never at push time.
 *  - Credits posted during tick t land in parity-double-buffered
 *    mailboxes and are applied by the upstream router's shard at the
 *    start of tick t+1 (or when a quiescence skip jumps over it).
 *  - Message accounting records migrate from the source shard to the
 *    destination shard through parity-double-buffered mailboxes
 *    (by value: pool handles never cross shards), posted at injection
 *    and drained one tick later in fixed source order.
 *  - Statistics accumulate per shard in exactly-summable form and
 *    merge at serial points (Accumulator's exact sums make the merge
 *    grouping-independent).
 */

#ifndef LOCSIM_NET_NETWORK_HH_
#define LOCSIM_NET_NETWORK_HH_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "obs/trace.hh"
#include "sim/engine.hh"
#include "net/link_fabric.hh"
#include "net/router.hh"
#include "stats/stats.hh"
#include "util/arena.hh"
#include "util/flat_map.hh"
#include "util/pool.hh"
#include "util/ring_queue.hh"
#include "util/serialize.hh"
#include "util/simd.hh"

namespace locsim {

namespace obs {
class PhaseSlot;
class Profiler;
}

namespace net {

/** Network-wide configuration. */
struct NetworkConfig
{
    int radix = 8;           //!< k
    int dims = 2;            //!< n
    /** Torus (paper) or mesh (physical Alewife) edges. */
    bool wraparound = true;
    RouterConfig router;     //!< per-router knobs
};

/**
 * Spatial partition of the nodes into contiguous shards.
 *
 * Shard s owns the node-id range [bounds[s], bounds[s+1]); row-major
 * node ids make each shard a contiguous band of torus rows, so only
 * the band-boundary links cross shards.
 */
struct ShardPlan
{
    int shards = 1;
    /** shards+1 node-id boundaries; empty means the trivial plan. */
    std::vector<sim::NodeId> bounds;

    /** Evenly split @p nodes into @p shards contiguous ranges. */
    static ShardPlan
    contiguous(sim::NodeId nodes, int shards)
    {
        ShardPlan plan;
        plan.shards = shards;
        plan.bounds.resize(static_cast<std::size_t>(shards) + 1);
        for (int s = 0; s <= shards; ++s) {
            plan.bounds[static_cast<std::size_t>(s)] =
                static_cast<sim::NodeId>(
                    (static_cast<std::uint64_t>(nodes) *
                     static_cast<std::uint64_t>(s)) /
                    static_cast<std::uint64_t>(shards));
        }
        return plan;
    }

    sim::NodeId first(int s) const
    {
        return bounds[static_cast<std::size_t>(s)];
    }
    sim::NodeId last(int s) const
    {
        return bounds[static_cast<std::size_t>(s) + 1];
    }

    int
    shardOf(sim::NodeId node) const
    {
        for (int s = 0; s < shards; ++s) {
            if (node < last(s))
                return s;
        }
        return shards - 1;
    }
};

/** Per-message accounting snapshot (also used by tests). */
struct MessageRecord
{
    Message message;
    sim::Tick inject_start = sim::kTickNever; //!< first flit offered
    sim::Tick delivered = sim::kTickNever;    //!< tail flit ejected
    int hops = 0;
    /** Counters harvested from the head flit at ejection. */
    std::uint16_t head_hops = 0;
    std::uint16_t head_stalls = 0;
};

/**
 * Per-class sums of the paper's latency decomposition: network latency
 * T = B (serialization) + h (hops) + 1 (ejection) + contention. The
 * contention term is measured as the residual T - B - h - 1 of each
 * delivered message (h from the head flit's link counter), clamped at
 * zero; at zero load it is identically zero.
 */
struct ClassAttribution
{
    std::uint64_t count = 0;
    double latency = 0.0;       //!< sum of T per message
    double serialization = 0.0; //!< sum of B (length in flits)
    double hops = 0.0;          //!< sum of measured link traversals
    double contention = 0.0;    //!< sum of the clamped residual
    double stalls = 0.0;        //!< sum of router allocation stalls
};

/** Aggregate network statistics. */
struct NetworkStats
{
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_delivered = 0;
    /** Network latency: head offered to tail ejected, per message. */
    stats::Accumulator latency;
    /**
     * Latency distribution (2-cycle buckets to 1024 cycles) for tail
     * percentiles; means alone hide contention tails.
     */
    stats::Histogram latency_hist{0.0, 1024.0, 512};
    /** Source queueing delay: submit to first flit offered. */
    stats::Accumulator source_queue;
    /** Hop count per delivered message. */
    stats::Accumulator hops;
    /** Message size in flits, per submitted message. */
    stats::Accumulator flits;
    /** Latency decomposition sums, indexed by MessageClass. */
    std::array<ClassAttribution, kMessageClassCount> attribution{};

    /**
     * Merge another shard's statistics into this one. All fields are
     * counts or exact sums, so merging the per-shard blocks in shard
     * order reproduces the sequential accumulation bit-for-bit.
     */
    void merge(const NetworkStats &other);

    void reset();

    void saveState(util::Serializer &s) const;
    void loadState(util::Deserializer &d);
};

/**
 * The full fabric for one machine.
 *
 * Construction wires every router and registers the flit store's
 * per-shard rotator with its shard engine. For a sequential machine
 * the caller registers the Network itself as a Clocked component with
 * period 1; a sharded machine registers shardClocked(s) with each
 * shard engine instead.
 */
class Network : public sim::Clocked
{
  public:
    /** Sequential fabric: one engine, trivial shard plan. */
    Network(sim::Engine &engine, const NetworkConfig &config);

    /**
     * Sharded fabric: engines[s] drives shard s of @p plan. All
     * engines must share one timeline (equal now() at every barrier).
     */
    Network(const NetworkConfig &config,
            const std::vector<sim::Engine *> &engines,
            const ShardPlan &plan);

    ~Network() override;

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    const TorusTopology &topology() const { return topo_; }
    const NetworkConfig &config() const { return config_; }
    const ShardPlan &shardPlan() const { return plan_; }

    /**
     * Submit a message from node @p msg.src.
     *
     * The source queue is unbounded (the closed-loop clients bound
     * their own outstanding transactions); the message id is assigned
     * by the fabric and returned. Ids are per-source-endpoint
     * sequences (source node in the high bits), so assignment is
     * deterministic for any shard count.
     *
     * @pre msg.src != msg.dst (local transactions never enter the
     *      network, mirroring the machine being modeled).
     */
    MessageId send(Message msg);

    /** Pop the next delivered message for @p node, if any. */
    std::optional<Message> receive(sim::NodeId node);

    /** Number of delivered-but-unclaimed messages at @p node. */
    std::size_t pendingAt(sim::NodeId node) const;

    /** Delivered-but-unclaimed messages across all nodes. */
    std::uint64_t pendingDeliveries() const;

    /** True if no message is in flight anywhere in the fabric. */
    bool idle() const;

    /** Sequential stepping: tick every shard in order. */
    void tick(sim::Tick now) override;

    /**
     * Advance shard @p s one network cycle: apply its credit mail,
     * drain its record mailboxes, eject, latch its routers' wakes,
     * then inject and route.
     * Called concurrently for distinct shards by the sharded driver
     * (phase A of a tick window).
     */
    void tickShard(int s, sim::Tick now);

    /**
     * The per-shard Clocked adapter the sharded machine registers
     * with shard engine @p s (period 1, before any node components).
     */
    sim::Clocked *shardClocked(int s);

    /**
     * The fabric has work while any message is between send() and tail
     * ejection. Credit mail still pending after the last delivery is
     * deliberately not counted: it is applied at the next tick (or by
     * a sharded skip, see credit_mail_), before any router can spend
     * it.
     */
    bool busy() const override { return inFlight() > 0; }

    /**
     * Aggregate statistics. With one shard this is a reference to the
     * live block; with several the per-shard blocks are merged (in
     * shard order; bit-identical to sequential accumulation) into a
     * cached block. Call only at serial points.
     */
    const NetworkStats &stats() const;

    /** Reset statistics (e.g. after warmup), keeping in-flight state. */
    void resetStats();

    /**
     * Average utilization of the neighbor (network) channels since the
     * last stats reset: flit-hops / (cycles * channel count). This is
     * the quantity the model calls rho.
     */
    double channelUtilization() const;

    /** Look up accounting for a message (test/diagnostic hook). */
    const MessageRecord *record(MessageId id) const;

    /**
     * Cumulative flits forwarded over neighbor (network) channels
     * since construction (sampler probe; resets never).
     */
    std::uint64_t totalNeighborFlitHops() const;

    /** Cumulative failed output-VC claims across all routers. */
    std::uint64_t totalAllocStalls() const;

    /** Cumulative cross-shard flit wake drains (0 on sequential
     *  runs). */
    std::uint64_t totalRemoteWakes() const;

    /** Flits currently buffered in all routers (sampler probe). */
    std::uint64_t bufferedFlits() const;

    /** Resident bytes of fabric storage (footprint accounting). */
    std::size_t memoryBytes() const;

    /** The store holding this fabric's flit links; ids run densely
     *  from 0 in construction order. */
    const FlitLinkStore &linkStore() const { return flit_store_; }

    /**
     * Attach a tracer for every shard (nullptr to detach; not owned).
     * Allocates one "net.<node>" track per node on first attach:
     * message lifetimes run as async spans from send() to tail
     * ejection, with "inject" instants when the head flit is first
     * offered. Routers share the tracks for flit-level detail.
     */
    void setTracer(obs::Tracer *tracer);

    /**
     * Attach shard @p s's tracer (sharded machines give each shard an
     * independent tracer so emission stays thread-local; the spans for
     * a cross-shard message begin on the source shard's tracer and end
     * on the destination's).
     */
    void setShardTracer(int s, obs::Tracer *tracer);

    /**
     * Attach a phase profiler (nullptr to detach; not owned). Each
     * shard's router scan (tickShard) records Phase::RouterScan on
     * that shard's slot.
     */
    void setProfiler(obs::Profiler *profiler);

    /**
     * Serialize the complete fabric state: every channel and router in
     * construction order, endpoint queues, in-flight accounting and
     * statistics. The byte stream is independent of the shard count
     * (records are sorted by id, per-shard statistics are merged, and
     * cross-shard wake words fold into their sequential equivalents),
     * so a checkpoint taken at any K restores at any other K. Requires
     * no attached tracer (span ids would dangle across a restore).
     */
    void saveState(util::Serializer &s) const;

    /** Restore state saved by saveState() on an identically configured
     *  fabric (any shard count on either side). */
    void loadState(util::Deserializer &d);

  private:
    struct NodeEndpoint
    {
        // Injection side.
        util::RingQueue<Message> source_queue;
        std::uint32_t flits_sent = 0;    //!< of the current message
        int inject_credits = 0;          //!< VC0 credits into router
        /**
         * Credits the router returned for the injection link, not yet
         * collected. The router adds to it during its tick, after this
         * endpoint's tickInjection, so a credit returned at tick T is
         * first collected at T+1.
         */
        int inject_bank = 0;
        /** Message-id sequence for this source endpoint. */
        std::uint64_t next_seq = 0;
        // Ejection side.
        util::RingQueue<Message> delivered;
        /**
         * Reassembly cursor. Ejection drains a single FIFO whose
         * flits are pushed by a single output VC owned head-to-tail
         * by one packet, so at most one message is ever mid-ejection
         * at a node: two scalars replace the per-message map
         * (arrived_count == 0 means no message is in progress).
         */
        MessageId arrived_msg = 0;
        std::uint32_t arrived_count = 0;
    };

    using RecordPool = util::Pool<MessageRecord>;
    using RecordHandle = RecordPool::Handle;

    /**
     * State owned by one shard: accounting records for messages whose
     * current "location" (source before injection, destination after)
     * is in the shard, plus this shard's statistics slice. Records
     * live in a per-shard pool (recycled across messages; the id map
     * holds handles, so rehashing never moves a record). The
     * in-flight / pending counters are signed because a message's
     * increment and decrement may land on different shards; only the
     * serial-point sums are meaningful.
     *
     * The work bitsets hold one bit per node of the shard (bit b of
     * word w names node first + 32w + b); tickShard visits only set
     * bits. An ejection bit is set by the ejection link's push wake
     * and cleared once the link is empty; an injection bit is set by
     * send() and cleared once the source queue is empty. Aligned so
     * shards ticking concurrently never share a cache line.
     */
    struct alignas(64) ShardState
    {
        RecordPool record_pool;
        util::FlatMap<MessageId, RecordHandle> records;
        NetworkStats stats;
        std::int64_t in_flight = 0;
        std::int64_t pending_deliveries = 0;
        std::vector<std::uint32_t> eject_work;
        std::vector<std::uint32_t> inject_work;
        /** This tick's credit mailboxes, indexed by upstream shard. */
        std::vector<CreditBox *> outbox;
    };

    /** Clocked adapter driving one shard (see shardClocked()). */
    class ShardTick : public sim::Clocked
    {
      public:
        ShardTick(Network &net, int shard) : net_(net), shard_(shard) {}
        void tick(sim::Tick now) override
        {
            net_.tickShard(shard_, now);
        }
        /** Global: quiescence decisions are whole-fabric decisions. */
        bool busy() const override { return net_.busy(); }
        void skipIdle(sim::Tick) override
        {
            net_.drainAllCreditMail(shard_);
        }

      private:
        Network &net_;
        int shard_;
    };

    /** Each returns whether the endpoint still has work. */
    bool tickInjection(sim::NodeId node, sim::Tick now);
    bool tickEjection(sim::NodeId node, sim::Tick now);
    void drainRecordMail(int dst_shard, sim::Tick now);

    /** Apply the credit mail shard @p s must see at tick @p now. */
    void drainCreditMail(int s, sim::Tick now);
    /** Apply all of shard @p s's credit mail (quiescence skips). */
    void drainAllCreditMail(int s);
    void applyCreditMail(CreditBox &box);
    /** The box of credits for shard @p dst, posted by shard @p src,
     *  that tick @p next drains. */
    CreditBox &creditBox(int dst, int src, sim::Tick next);

    /**
     * Call @p fn(node, port) for every credit link the fabric once
     * had, in their construction (and checkpoint stream) order: the
     * link returning credits to @p port of router @p node, or, with
     * port == -1, the one returning credits to node's injection
     * endpoint.
     */
    template <typename Fn> void forEachCreditLink(Fn &&fn) const;

    /** Index of (node, output port, VC) in pendingCredits(). */
    std::size_t creditSlot(sim::NodeId node, int port, int vc) const;
    /** Credits waiting in the mail, per creditSlot(). */
    std::vector<int> pendingCredits() const;
    int shardOf(sim::NodeId node) const { return plan_.shardOf(node); }
    std::int64_t inFlight() const;
    obs::Tracer *tracerFor(int shard) const
    {
        return tracers_.empty()
                   ? nullptr
                   : tracers_[static_cast<std::size_t>(shard)];
    }

    NetworkConfig config_;
    TorusTopology topo_;
    ShardPlan plan_;
    std::vector<sim::Engine *> engines_; //!< engines_[s] drives shard s

    /**
     * The SoA link fabric: all flit links, indexed by dense
     * ChannelIds in construction order (which the serialization
     * stream follows). One batch rotator per shard is registered
     * with that shard's engine.
     */
    FlitLinkStore flit_store_;

    /**
     * Backing store for the routers. One fabric allocates many small
     * objects with identical lifetime; bump allocation packs them
     * contiguously (construction-order locality matches tick-order
     * traversal) and frees them in one sweep. Declared before the
     * pointer vector so it outlives it.
     */
    util::Arena arena_;

    std::vector<Router *> routers_;

    /**
     * Fabric-wide router state slabs, sliced per router (see
     * Router::RouterSlices). Sized once before router construction;
     * routers hold raw pointers into them.
     */
    std::vector<Router::InputVc> input_units_;
    std::vector<Router::OutputPort> output_ports_;
    std::vector<Flit> vc_slab_;

    /**
     * Per-node wake and occupancy words, one uint32 per router per
     * slab (indexed by node id). Hoisting these out of the Router
     * objects lets tickShard latch wakes and evaluate per-node busy
     * masks as a lane-vector kernel over 8 contiguous nodes at a time
     * (kernels::routerLatchBusy). Padded to a multiple of 8 words so
     * full-width vector loads/stores on the last group stay in
     * bounds; pad words are never staged and always read as idle.
     */
    std::vector<std::uint32_t> flit_wake_staged_;
    std::vector<std::uint32_t> flit_wake_;
    std::vector<std::uint32_t> buffered_slab_;

    /**
     * Per-shard list of nodes with cross-shard producers. The kernel
     * path drains their remote wake atomics into the staged words
     * before the vector latch; every other node's staged words are
     * only written by its own shard, so the vector pass is race-free.
     */
    std::vector<std::vector<sim::NodeId>> remote_nodes_;

    /**
     * Per-shard busy-byte scratch for the latch kernel: one byte per
     * group of 8 nodes, bit b = node (group*8 + b) had work at latch
     * time. Sized at construction; the steady-state loop never
     * allocates.
     */
    std::vector<std::vector<std::uint8_t>> busy_scratch_;

    /** Lane-vector kernel level, resolved once at construction. */
    util::simd::Level simd_level_ = util::simd::Level::Off;

    // Per-node endpoint channels (indexed by node).
    std::vector<ChannelId> inject_link_;
    std::vector<ChannelId> eject_link_;

    std::vector<NodeEndpoint> endpoints_;

    std::vector<ShardState> shards_;
    std::vector<std::unique_ptr<ShardTick>> shard_ticks_;

    /**
     * Record-migration mailboxes, indexed [tick parity][dst * K + src].
     * A record posted during tick t (parity t&1) is drained by the
     * destination shard at the start of tick t+1 — the parities
     * alternate, so posts and drains never touch the same cell in the
     * same phase, and barrier separation orders them without atomics.
     * A pending record implies its message is in flight, so quiescence
     * skips (which would break the parity arithmetic) cannot occur
     * with mail outstanding. Records travel by value: pool handles
     * are shard-local names and never cross shards.
     */
    std::array<std::vector<std::vector<MessageRecord>>, 2> record_mail_;

    /**
     * Credit mailboxes. A sequential fabric uses one box,
     * credit_mail_[0][0]: it is drained at the start of each tick,
     * before anything posts, however far a skip jumped. A sharded
     * fabric indexes them like record_mail_, [tick parity][dst * K +
     * src], with dst the shard of the router the credit returns to;
     * each box is drained in fixed source order. Unlike record mail,
     * credit mail can still be pending when the fabric goes quiescent
     * (the last ejection's credit), so a sharded quiescence skip
     * drains it (ShardTick::skipIdle); otherwise a jump of odd length
     * would leave it waiting one more tick for its parity.
     */
    std::array<std::vector<CreditBox>, 2> credit_mail_;

    /** Merge target for stats() on sharded fabrics (serial use only). */
    mutable NetworkStats merged_stats_;

    sim::Tick stats_start_ = 0;
    std::uint64_t stats_flit_hops_base_ = 0;

    /** Per-shard tracers (empty when tracing is off). */
    std::vector<obs::Tracer *> tracers_;
    std::vector<int> node_tracks_;

    /** Per-shard profiler slots (all null when profiling is off). */
    std::vector<obs::PhaseSlot *> profile_slots_;
};

} // namespace net
} // namespace locsim

#endif // LOCSIM_NET_NETWORK_HH_
