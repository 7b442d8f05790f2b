/**
 * @file
 * A virtual-channel wormhole router for k-ary n-dimensional tori.
 *
 * Microarchitecture (one network cycle per hop when uncontended,
 * matching Section 3.1's "base delay through a network switch is a
 * single network cycle"):
 *
 *  - 2n neighbor ports (one per dimension and direction, separate
 *    unidirectional physical channels) plus an injection input and an
 *    ejection output.
 *  - V virtual channels per physical channel, each with a private
 *    flit buffer of fixed depth; credit-based flow control returns one
 *    credit upstream per flit drained.
 *  - Dimension-order (e-cube) routing; within a ring, deadlock freedom
 *    comes from Dally's dateline scheme: packets use VC 0 until they
 *    traverse the wrap-around link, VC 1 from the wrap link onward.
 *  - Per-packet output VC ownership (wormhole): a head flit claims an
 *    output VC; the tail releases it.
 *
 * Flits travel through latched links, so the order in which routers
 * tick within a cycle is immaterial. Links live in the Network's
 * FlitLinkStore and are named by dense ChannelIds. Credits travel as
 * shard mail (CreditMail): a router posts one record per drained flit
 * and the Network applies the mail at the start of the next cycle,
 * before any router ticks, which is the same one-cycle delay a
 * latched credit link had. The router's own input-VC and output-port
 * state lives in Network-owned slabs (one contiguous array per kind
 * across all routers), handed to each router as a RouterSlices view.
 * The router object itself is just wiring, masks and statistics.
 */

#ifndef LOCSIM_NET_ROUTER_HH_
#define LOCSIM_NET_ROUTER_HH_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hh"
#include "net/link_fabric.hh"
#include "net/message.hh"
#include "net/topology.hh"
#include "stats/stats.hh"

namespace locsim {
namespace net {

/** Configuration knobs for the router fabric. */
struct RouterConfig
{
    /** Virtual channels per physical channel (>= 2 for torus). */
    int vcs = 2;
    /**
     * Flit buffer depth per virtual channel ("a moderate amount of
     * buffering is provided on each switch", Section 3.1).
     */
    int buffer_depth = 8;
};

/**
 * One credit on its way upstream: output VC @p vc of output @p port on
 * router @p node regains a buffer slot. Posted by the router that
 * drained the flit (or the ejecting endpoint) during cycle T and
 * applied by the Network at the start of cycle T+1.
 */
struct CreditMail
{
    sim::NodeId node = 0;
    std::uint8_t port = 0;
    std::uint8_t vc = 0;
};

/**
 * One credit mailbox. Sharded fabrics keep one per (destination
 * shard, source shard) pair and tick parity; the alignment keeps
 * boxes that different shards post into concurrently on separate
 * cache lines.
 */
struct alignas(64) CreditBox
{
    std::vector<CreditMail> mail;
};

/** Where a router returns the credits of one input port. */
struct CreditReturn
{
    sim::NodeId node = sim::kNodeNone; //!< upstream router
    std::uint8_t port = 0;             //!< its output port
    std::uint16_t shard = 0;           //!< its shard (mailbox index)
};

/**
 * One switch of the torus fabric.
 *
 * The Network wires up link channels between routers and owns the
 * flat state slabs; the router itself only knows its node id, the
 * topology, its slab slices and its channel ids.
 */
class Router
{
  public:
    /** The activity masks hold one bit per input unit (port * vc). */
    static constexpr int kMaxPorts = 16;
    /** Per-port VC state uses fixed-size arrays. */
    static constexpr int kMaxVcs = 8;

    /**
     * One input VC: a private flit buffer (a slice of the fabric-wide
     * contiguous ring slab, power-of-two sized for buffer_depth;
     * credit flow control guarantees it never overflows) plus the
     * wormhole routing state of the packet at its head. Ring indices
     * are monotonic and masked on access.
     */
    struct InputVc
    {
        Flit *slots = nullptr;       //!< into the Network's vc slab
        std::uint32_t mask = 0;      //!< ring capacity - 1
        std::uint32_t head = 0;
        std::uint32_t tail = 0;

        bool bufEmpty() const { return head == tail; }
        std::uint32_t bufSize() const { return tail - head; }
        const Flit &bufFront() const { return slots[head & mask]; }
        Flit &bufFrontMut() { return slots[head & mask]; }
        void bufPush(const Flit &flit)
        {
            slots[tail & mask] = flit;
            ++tail;
        }
        void bufPop() { ++head; }

        bool routed = false;      //!< head holds its output VC
        /**
         * out_port/out_vc hold a valid route for the head packet.
         * The route is a pure function of the head flit and the input
         * port, so it stays cached across failed allocation retries
         * and is only invalidated when the tail flit departs.
         *
         * Narrow types throughout (ports and VC indices are bounded
         * well below 127): the switch phases walk every unit's state
         * each busy cycle, so InputVc packs into 24 bytes.
         */
        bool route_valid = false;
        std::int8_t out_port = -1;
        std::int8_t out_vc = -1;
    };

    /** Packed like InputVc: all of a router's output-port state fits
     *  in about two cache lines. Checkpoint streams still carry the
     *  original int-width fields. */
    struct OutputPort
    {
        /** Encoded owner input (port * vcs + vc), or -1 if free. */
        std::array<std::int8_t, kMaxVcs> owner{};
        /** Credits available per output VC. */
        std::array<std::int16_t, kMaxVcs> credits{};
        /** Round-robin pointer over output VCs. */
        std::int8_t next_vc = 0;
    };

    /**
     * This router's views into the Network-owned state slabs:
     * @p inputs has unitCount() entries, @p outputs portCount()
     * entries, and @p vc_slots unitCount() * vcRingCapacity() flits.
     * The wake/occupancy words live in per-node uint32 slabs (one
     * word per router per slab) so the start-of-cycle latch and busy
     * scan stream contiguous arrays — and vectorize (see
     * kernels::routerLatchBusy) — instead of striding across router
     * objects; each pointer names this router's single word.
     * @p inject_bank is the co-sharded endpoint's injection credit
     * bank, which credits for the local input port go straight into.
     */
    struct RouterSlices
    {
        InputVc *inputs = nullptr;
        OutputPort *outputs = nullptr;
        Flit *vc_slots = nullptr;
        std::uint32_t *flit_wake_staged = nullptr;
        std::uint32_t *flit_wake = nullptr;
        std::uint32_t *buffered = nullptr;
        int *inject_bank = nullptr;
    };

    Router(const TorusTopology &topo, sim::NodeId node,
           const RouterConfig &config, FlitLinkStore &flits,
           const RouterSlices &slices);

    /** Number of ports including injection/ejection. */
    int portCount() const { return 2 * topo_.dims() + 1; }

    /** Input units (port, vc pairs) of one router. */
    int unitCount() const { return portCount() * config_.vcs; }

    /** Per-input-VC ring slots (power of two >= buffer_depth). */
    static std::size_t
    vcRingCapacity(const RouterConfig &config)
    {
        std::size_t cap = 2;
        while (cap < static_cast<std::size_t>(config.buffer_depth))
            cap <<= 1;
        return cap;
    }

    /** Port index for (dim, dir): outgoing or incoming neighbor. */
    static int
    portFor(int dim, int dir)
    {
        return 2 * dim + (dir > 0 ? 0 : 1);
    }

    /** The local (injection input / ejection output) port index. */
    int localPort() const { return 2 * topo_.dims(); }

    /**
     * Connect the channels for one port.
     *
     * @param port port index.
     * @param in flits arriving into this router (the local port uses
     *        @p in for injection and @p out for ejection).
     * @param out flits leaving this router.
     * @param up where credits for flits drained from @p in go; unused
     *        for the local port, whose credits go to the inject bank.
     */
    void connect(int port, ChannelId in, ChannelId out,
                 const CreditReturn &up);

    /**
     * Advance one network cycle. @p now is the engine tick; internal
     * round-robin pointers are derived from it so that skipping ticks
     * while idle leaves arbitration state exactly as if the router
     * had been polled every cycle. Credits for neighbor routers are
     * posted to @p outbox[shard of the upstream router].
     */
    void tick(sim::Tick now, CreditBox *const *outbox);

    /**
     * Apply one returned credit to output VC @p vc of @p port. Credits
     * for an owned VC may unblock the port, so it is re-armed; credits
     * for a released VC need no re-arm (a later claim arms it).
     */
    void
    receiveCredit(int port, int vc)
    {
        OutputPort &out = outputs_[static_cast<std::size_t>(port)];
        std::int16_t &count = out.credits[static_cast<std::size_t>(vc)];
        ++count;
        LOCSIM_ASSERT(count <= config_.buffer_depth,
                      "credit overflow on node ", node_, " port ", port);
        if (out.owner[static_cast<std::size_t>(vc)] != -1)
            ready_ports_ |= 1u << port;
    }

    /**
     * Latch the wake bits staged by last cycle's flit pushes into the
     * mask tick() consumes. The Network calls this on every router at
     * the start of a network cycle, before anything pushes: pushes
     * made during the current cycle stage wakes for the next one,
     * mirroring the links' one-cycle latching delay.
     */
    void
    latchWakes()
    {
        *flit_wake_ |= std::exchange(*flit_wake_staged_, 0u);
        if (has_remote_wakes_) {
            const std::uint32_t flits = remote_flit_wake_.exchange(
                0u, std::memory_order_relaxed);
            *flit_wake_ |= flits;
            remote_wakes_ +=
                static_cast<std::uint64_t>(std::popcount(flits));
        }
    }

    /**
     * Kernel-path variant of the remote half of latchWakes(): fold
     * pending cross-shard wakes into the *staged* words, which the
     * lane-vector latch (kernels::routerLatchBusy) then ORs into the
     * wake words exactly as latchWakes() would have — same final
     * state, same remote_wakes_ accounting. The Network calls this
     * for its per-shard remote-node list before running the kernel.
     */
    void
    drainRemoteWakes()
    {
        const std::uint32_t flits =
            remote_flit_wake_.exchange(0u, std::memory_order_relaxed);
        *flit_wake_staged_ |= flits;
        remote_wakes_ += static_cast<std::uint64_t>(std::popcount(flits));
    }

    /** True once any channel bound a cross-shard wake to this router. */
    bool hasRemoteWakes() const { return has_remote_wakes_; }

    /**
     * Cross-shard wake word. In sharded runs, an input channel whose
     * producer router lives on another shard delivers its wake here
     * (atomically, during the rotation phase) instead of into the
     * plain staged word; latchWakes() then drains both. The extra
     * exchange is gated on has_remote_wakes_ so the sequential path
     * pays nothing. The Network performs the binding.
     */
    std::atomic<std::uint32_t> &
    remoteFlitWakeWord()
    {
        has_remote_wakes_ = true;
        return remote_flit_wake_;
    }

    /**
     * Activity report: true if any flit is buffered in this router or
     * a latched wake says a flit became visible on an input channel.
     * Credits need no wake: the Network applies them before routers
     * tick, and a router with nothing buffered has nothing to spend
     * them on. An idle router's tick() is a no-op, so the fabric may
     * skip it entirely. Only meaningful after latchWakes().
     */
    bool
    busy() const
    {
        return *buffered_ > 0 || *flit_wake_ != 0;
    }

    /** Flits forwarded through output @p port (for utilization). */
    const stats::Counter &
    outputFlits(int port) const
    {
        return output_flits_[static_cast<std::size_t>(port)];
    }

    /** Credits output VC @p vc of @p port holds. */
    int
    credits(int port, int vc) const
    {
        return outputs_[static_cast<std::size_t>(port)]
            .credits[static_cast<std::size_t>(vc)];
    }

    /** Failed output-VC claims (head flit blocked this cycle). */
    const stats::Counter &allocStalls() const { return alloc_stalls_; }

    /**
     * Cross-shard flit wake bits drained by latchWakes() (popcount of
     * the remote wake word). An execution diagnostic for the counter
     * registry — 0 in sequential runs, shard-count-dependent and not
     * part of the simulated result, hence never serialized.
     */
    std::uint64_t remoteWakes() const { return remote_wakes_; }

    /**
     * Attach a tracer for flit-level detail (nullptr to detach; not
     * owned). Events are only emitted when the tracer is configured
     * with TraceDetail::Flit: "flit" per link/ejection traversal and
     * "alloc_stall" per failed output-VC claim, all on @p track.
     */
    void
    setTracer(obs::Tracer *tracer, int track)
    {
        tracer_ = (tracer != nullptr && tracer->flitDetail())
                      ? tracer
                      : nullptr;
        trace_track_ = track;
    }

    /** Total flits currently buffered (for drain/idle detection). */
    std::size_t bufferedFlits() const;

    const RouterConfig &config() const { return config_; }
    sim::NodeId node() const { return node_; }

    /**
     * Serialize the router's dynamic state: input-VC buffers with
     * their wormhole routing state, output VC ownership and credits,
     * all wake/occupancy masks (staged wakes can be nonzero at a run
     * boundary), arbitration cache, and per-port statistics. Channel
     * wiring and decode tables are reconstructed at build time.
     *
     * The stream keeps the two credit-wake words of the latched credit
     * links this router once had: @p credit_mail_ports (output ports
     * with credit mail pending, which is what the staged word held at
     * every cycle boundary) and 0 (the latched word was always
     * consumed within its cycle).
     */
    void
    saveState(util::Serializer &s, std::uint32_t credit_mail_ports) const
    {
        const int units = unitCount();
        s.put<std::uint64_t>(static_cast<std::uint64_t>(units));
        for (int u = 0; u < units; ++u) {
            const InputVc &ivc = inputs_[static_cast<std::size_t>(u)];
            s.put(ivc.head);
            s.put(ivc.tail);
            for (std::uint32_t i = ivc.head; i != ivc.tail; ++i)
                saveFlit(s, ivc.slots[i & ivc.mask]);
            s.put(ivc.routed);
            s.put(ivc.route_valid);
            s.put(static_cast<int>(ivc.out_port));
            s.put(static_cast<int>(ivc.out_vc));
        }
        const int ports = portCount();
        s.put<std::uint64_t>(static_cast<std::uint64_t>(ports));
        for (int p = 0; p < ports; ++p) {
            const OutputPort &op = outputs_[static_cast<std::size_t>(p)];
            for (int vc = 0; vc < config_.vcs; ++vc) {
                const auto v = static_cast<std::size_t>(vc);
                s.put(static_cast<int>(op.owner[v]));
                s.put(static_cast<int>(op.credits[v]));
            }
            s.put(static_cast<int>(op.next_vc));
        }
        // The slab word is 32-bit in memory; the stream keeps its
        // original 64-bit field.
        s.put<std::uint64_t>(*buffered_);
        // Fold pending cross-shard wakes into the staged word: the two
        // are drained identically by latchWakes(), and folding keeps
        // checkpoint bytes independent of the shard count.
        s.put(*flit_wake_staged_ |
              remote_flit_wake_.load(std::memory_order_relaxed));
        s.put(*flit_wake_);
        s.put(credit_mail_ports);
        s.put(std::uint32_t{0});
        // Input units with a non-empty buffer (derived, kept in the
        // stream).
        std::uint32_t occupied = 0;
        for (int u = 0; u < units; ++u) {
            if (!inputs_[static_cast<std::size_t>(u)].bufEmpty())
                occupied |= 1u << u;
        }
        s.put(occupied);
        s.put(owned_ports_);
        s.put(rr_now_);
        s.put(rr_start_);
        for (int p = 0; p < ports; ++p)
            output_flits_[static_cast<std::size_t>(p)].saveState(s);
        alloc_stalls_.saveState(s);
    }

    /**
     * Restore state saved by saveState(). Every field that later
     * indexes an array, sizes a ring or shifts a mask is range-checked
     * first, so a corrupt image throws std::runtime_error instead of
     * corrupting memory. The occupancy words and masks are rebuilt
     * from the state they summarize, and the credit-wake words are
     * dropped: pending credits restore from the credit-link section
     * as mail.
     */
    void
    loadState(util::Deserializer &d)
    {
        const int units = unitCount();
        const int ports = portCount();
        const int depth = config_.buffer_depth;
        auto require = [](bool ok, const char *what) {
            if (!ok) {
                throw std::runtime_error(
                    std::string("Router::loadState: ") + what);
            }
        };
        require(d.get<std::uint64_t>() ==
                    static_cast<std::uint64_t>(units),
                "input unit count mismatch");
        std::uint32_t held = 0;
        alloc_pending_ = 0;
        for (int u = 0; u < units; ++u) {
            InputVc &ivc = inputs_[static_cast<std::size_t>(u)];
            ivc.head = d.get<std::uint32_t>();
            ivc.tail = d.get<std::uint32_t>();
            require(ivc.bufSize() <= static_cast<std::uint32_t>(depth),
                    "VC buffer holds more flits than its depth");
            held += ivc.bufSize();
            for (std::uint32_t i = ivc.head; i != ivc.tail; ++i)
                ivc.slots[i & ivc.mask] = loadFlit(d);
            ivc.routed = d.getBool();
            ivc.route_valid = d.getBool();
            const int out_port = d.get<int>();
            const int out_vc = d.get<int>();
            require(out_port >= -1 && out_port < ports && out_vc >= -1 &&
                        out_vc < config_.vcs,
                    "cached route out of range");
            ivc.out_port = static_cast<std::int8_t>(out_port);
            ivc.out_vc = static_cast<std::int8_t>(out_vc);
            if (!ivc.routed && !ivc.bufEmpty())
                alloc_pending_ |= 1u << u;
        }
        require(d.get<std::uint64_t>() ==
                    static_cast<std::uint64_t>(ports),
                "output port count mismatch");
        owned_ports_ = 0;
        for (int p = 0; p < ports; ++p) {
            OutputPort &op = outputs_[static_cast<std::size_t>(p)];
            for (int vc = 0; vc < config_.vcs; ++vc) {
                const auto v = static_cast<std::size_t>(vc);
                const int owner = d.get<int>();
                const int credits = d.get<int>();
                require(owner >= -1 && owner < units,
                        "output VC owner out of range");
                require(credits >= 0 && credits <= depth,
                        "output VC credits outside [0, buffer depth]");
                op.owner[v] = static_cast<std::int8_t>(owner);
                op.credits[v] = static_cast<std::int16_t>(credits);
                if (owner != -1)
                    owned_ports_ |= 1u << p;
            }
            const int next_vc = d.get<int>();
            require(next_vc >= 0 && next_vc < config_.vcs,
                    "round-robin VC out of range");
            op.next_vc = static_cast<std::int8_t>(next_vc);
        }
        d.get<std::uint64_t>(); // buffered flits
        *buffered_ = held;
        *flit_wake_staged_ = d.get<std::uint32_t>();
        *flit_wake_ = d.get<std::uint32_t>();
        require(((*flit_wake_staged_ | *flit_wake_) >> ports) == 0,
                "wake bit names no port");
        remote_flit_wake_.store(0u, std::memory_order_relaxed);
        d.get<std::uint32_t>(); // credit mail ports
        d.get<std::uint32_t>(); // latched credit wake, always 0
        d.get<std::uint32_t>(); // occupied input units
        d.get<std::uint32_t>(); // owned output ports
        // ready_ports_ may be a superset of what a never-checkpointed
        // run would hold; scanning an extra blocked port forwards
        // nothing and marks nothing, so the superset is observationally
        // identical and self-corrects on the first traversal.
        ready_ports_ = owned_ports_;
        rr_now_ = d.get<sim::Tick>();
        rr_start_ = d.get<int>();
        require(rr_start_ >= 0 && rr_start_ < units,
                "allocation scan start out of range");
        for (int p = 0; p < ports; ++p)
            output_flits_[static_cast<std::size_t>(p)].loadState(d);
        alloc_stalls_.loadState(d);
    }

  private:
    void receiveFlits();
    void routeAndAllocate(sim::Tick now);
    void switchTraversal(sim::Tick now, CreditBox *const *outbox);

    /** Compute route for the head flit of (port, vc). */
    void computeRoute(int port, InputVc &ivc);

    InputVc &
    inputVc(int port, int vc)
    {
        return inputs_[static_cast<std::size_t>(
            port * config_.vcs + vc)];
    }

    const TorusTopology &topo_;
    sim::NodeId node_;
    RouterConfig config_;

    FlitLinkStore &flit_store_;

    InputVc *inputs_ = nullptr;     // [port][vc] flattened slab slice
    OutputPort *outputs_ = nullptr; // [port] slab slice

    /**
     * Channel ids per port. portCount() is bounded by kMaxPorts (the
     * constructor asserts ports * vcs < 32 with vcs >= 2), so fixed
     * arrays avoid four heap vectors per router.
     */
    std::array<ChannelId, kMaxPorts> in_links_;
    std::array<ChannelId, kMaxPorts> out_links_;
    std::array<CreditReturn, kMaxPorts> credit_up_;

    /** Flits currently held in input VC buffers (kept incrementally;
     *  slab word, see RouterSlices). */
    std::uint32_t *buffered_ = nullptr;
    /** The local endpoint's injection credit bank (RouterSlices). */
    int *inject_bank_ = nullptr;

    /**
     * Activity bitmasks, one bit per port (wake words) or per input
     * unit / output port (occupancy). The wake words are written by
     * the input channels at push time (store wake bindings) and
     * latched by latchWakes(); tick() then visits only ports whose
     * channels actually carry something, and the allocation /
     * traversal phases visit only units with buffered flits / ports
     * with owned VCs. The constructor asserts port * VC counts fit in
     * 32 bits. The wake words live in Network-owned per-node slabs
     * (RouterSlices) so the start-of-cycle latch is a contiguous —
     * and vectorizable — sweep; these pointers name this router's
     * words.
     */
    std::uint32_t *flit_wake_staged_ = nullptr;
    std::uint32_t *flit_wake_ = nullptr;
    /** Cross-shard wake word; see remoteFlitWakeWord(). */
    std::atomic<std::uint32_t> remote_flit_wake_{0};
    bool has_remote_wakes_ = false;
    /** See remoteWakes(); host diagnostic, excluded from saveState. */
    std::uint64_t remote_wakes_ = 0;
    /** Output ports with at least one owned (allocated) VC. */
    std::uint32_t owned_ports_ = 0;

    /**
     * Event-armed scan pruning. Under congestion most owned output
     * VCs are blocked on credits or upstream body flits for many
     * cycles, so re-scanning them every cycle dominates the traversal
     * phase. Instead, a port is scanned only while its ready bit is
     * set; the bit is cleared when a scan proves the port cannot
     * forward until new input arrives, and re-armed by exactly the
     * events that could unblock it: a credit arrival (receiveCredit),
     * a flit arrival into a routed unit (receiveFlits), or a fresh VC
     * claim (routeAndAllocate). alloc_pending_ likewise narrows the
     * allocation scan to units whose head packet still needs an
     * output VC. Both masks are derived state: they are never
     * serialized (checkpoint bytes are unchanged) and are rebuilt
     * conservatively in loadState().
     */
    std::uint32_t ready_ports_ = 0;
    std::uint32_t alloc_pending_ = 0;

    /**
     * Unit index -> (port, vc) decode tables: the hot phases decode
     * owner units every cycle, and a table lookup beats dividing by
     * the runtime VC count.
     */
    std::array<std::int8_t, 32> unit_port_{};
    std::array<std::int8_t, 32> unit_vc_{};

    /**
     * Cache for the allocation scan's rotating start position, which
     * is a pure function of the tick (start = now mod units). Ticks
     * usually arrive consecutively, so the common case is an
     * increment instead of a 64-bit division.
     */
    sim::Tick rr_now_ = 0;
    int rr_start_ = 0;

    std::array<stats::Counter, kMaxPorts> output_flits_;
    stats::Counter alloc_stalls_;

    /** Non-null only when flit-level tracing is on (null sink). */
    obs::Tracer *tracer_ = nullptr;
    int trace_track_ = 0;
};

} // namespace net
} // namespace locsim

#endif // LOCSIM_NET_ROUTER_HH_
