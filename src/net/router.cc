/**
 * @file
 * Router implementation.
 */

#include "net/router.hh"

#include <bit>

#include "util/logging.hh"

namespace locsim {
namespace net {

Router::Router(const TorusTopology &topo, sim::NodeId node,
               const RouterConfig &config, FlitLinkStore &flits,
               const RouterSlices &slices)
    : topo_(topo), node_(node), config_(config), flit_store_(flits),
      inputs_(slices.inputs), outputs_(slices.outputs),
      buffered_(slices.buffered), inject_bank_(slices.inject_bank),
      flit_wake_staged_(slices.flit_wake_staged),
      flit_wake_(slices.flit_wake)
{
    LOCSIM_ASSERT(buffered_ != nullptr && flit_wake_ != nullptr &&
                      inject_bank_ != nullptr,
                  "router wake/occupancy slab words are required");
    LOCSIM_ASSERT(config_.vcs >= 2,
                  "torus wormhole routing needs >= 2 virtual channels");
    LOCSIM_ASSERT(config_.buffer_depth >= 1, "buffer depth must be >= 1");
    LOCSIM_ASSERT(config_.buffer_depth <= 32767,
                  "credit counts are 16-bit");

    const int ports = portCount();
    LOCSIM_ASSERT(ports * config_.vcs < 32,
                  "activity masks hold one bit per input unit");
    LOCSIM_ASSERT(ports <= kMaxPorts, "per-port arrays are fixed-size");
    LOCSIM_ASSERT(config_.vcs <= kMaxVcs,
                  "per-port VC state uses fixed-size arrays");
    const std::size_t vc_cap = vcRingCapacity(config_);
    const int units = unitCount();
    for (int unit = 0; unit < units; ++unit) {
        const auto u = static_cast<std::size_t>(unit);
        inputs_[u] = InputVc{};
        inputs_[u].slots = slices.vc_slots + u * vc_cap;
        inputs_[u].mask = static_cast<std::uint32_t>(vc_cap - 1);
        unit_port_[u] = static_cast<std::int8_t>(unit / config_.vcs);
        unit_vc_[u] = static_cast<std::int8_t>(unit % config_.vcs);
    }
    for (int p = 0; p < ports; ++p) {
        const auto i = static_cast<std::size_t>(p);
        outputs_[i] = OutputPort{};
        outputs_[i].owner.fill(-1);
    }
    in_links_.fill(kNoChannel);
    out_links_.fill(kNoChannel);
}

void
Router::connect(int port, ChannelId in, ChannelId out,
                const CreditReturn &up)
{
    LOCSIM_ASSERT(port >= 0 && port < portCount(), "bad port index");
    const auto p = static_cast<std::size_t>(port);
    in_links_[p] = in;
    out_links_[p] = out;
    credit_up_[p] = up;
    // Input channels wake this router at push time so tick() visits
    // only the ports that actually carry something.
    if (in != kNoChannel)
        flit_store_.bindWake(in, flit_wake_staged_, 1u << port);
    // The consumer downstream of `out` exposes buffer_depth slots per
    // VC; start with full credit.
    if (out != kNoChannel) {
        for (int v = 0; v < config_.vcs; ++v)
            outputs_[p].credits[static_cast<std::size_t>(v)] =
                static_cast<std::int16_t>(config_.buffer_depth);
    }
}

void
Router::receiveFlits()
{
    std::uint32_t ports = std::exchange(*flit_wake_, 0u);
    while (ports != 0) {
        const int port = std::countr_zero(ports);
        ports &= ports - 1;
        const ChannelId ch = in_links_[static_cast<std::size_t>(port)];
        // Batch drain: one head-cursor load and one store per port
        // instead of per flit.
        const std::uint32_t n = flit_store_.visibleCount(ch);
        const std::uint32_t head = flit_store_.headCursor(ch);
        for (std::uint32_t i = 0; i < n; ++i) {
            const Flit &flit = flit_store_.at(ch, head + i);
            LOCSIM_ASSERT(flit.vc < config_.vcs, "flit VC range");
            const int unit = port * config_.vcs + flit.vc;
            InputVc &ivc = inputs_[static_cast<std::size_t>(unit)];
            LOCSIM_ASSERT(static_cast<int>(ivc.bufSize()) <
                              config_.buffer_depth,
                          "input buffer overflow: credit protocol "
                          "violated at node ",
                          node_, " port ", port, " vc ",
                          static_cast<int>(flit.vc));
            ivc.bufPush(flit);
            ++*buffered_;
            if (ivc.routed) {
                // A body flit joined a unit that holds its output VC:
                // that port may forward again.
                ready_ports_ |= 1u << ivc.out_port;
            } else {
                alloc_pending_ |= 1u << unit;
            }
        }
        flit_store_.consume(ch, n);
    }
}

void
Router::computeRoute(int port, InputVc &ivc)
{
    const Flit &head = ivc.bufFront();
    LOCSIM_ASSERT(head.head, "routing a non-head flit");

    if (head.dst == node_) {
        ivc.out_port = static_cast<std::int8_t>(localPort());
        ivc.out_vc = 0;
        ivc.route_valid = true;
        return;
    }

    const HopStep step = topo_.nextHop(node_, head.dst);
    // Dateline state resets when the packet enters a new dimension.
    bool crossed = false;
    if (port != localPort() && port / 2 == step.dim)
        crossed = head.crossed_dateline;
    ivc.out_port = static_cast<std::int8_t>(portFor(step.dim, step.dir));
    ivc.out_vc = (crossed || step.wraps) ? 1 : 0;
    ivc.route_valid = true;
}

void
Router::routeAndAllocate(sim::Tick now)
{
    // The scan start below is a pure function of `now`, so skipping
    // idle cycles entirely (including the rr cache update) leaves
    // arbitration state exactly as if the scan had run and found
    // nothing.
    if (alloc_pending_ == 0)
        return;
    const int units = unitCount();
    // Rotate the scan start so no input unit starves under contention.
    // The start advances once per network cycle; deriving it from the
    // tick (routers are clocked at period 1) makes it independent of
    // how many idle cycles were skipped.
    int start;
    if (now == rr_now_ + 1) {
        start = rr_start_ + 1 == units ? 0 : rr_start_ + 1;
    } else {
        start = static_cast<int>(now % static_cast<sim::Tick>(units));
    }
    rr_now_ = now;
    rr_start_ = start;
    // Visit only units whose head packet still needs an output VC, in
    // the same rotated order (start, start+1, ..., wrapping) as a full
    // scan would; routed and empty units are no-ops in that scan, so
    // pruning them cannot change the allocation outcome.
    std::uint32_t pending = alloc_pending_;
    if (start != 0) {
        pending = ((pending >> start) | (pending << (units - start))) &
                  ((1u << units) - 1u);
    }
    while (pending != 0) {
        const int offset = std::countr_zero(pending);
        pending &= pending - 1;
        int unit = start + offset;
        if (unit >= units)
            unit -= units;
        const int port = unit_port_[static_cast<std::size_t>(unit)];
        InputVc &ivc = inputs_[static_cast<std::size_t>(unit)];
        if (ivc.routed)
            continue;
        if (!ivc.route_valid) {
            if (!ivc.bufFront().head) {
                // A body flit can be at the front only if the head
                // already passed, in which case routed would still be
                // true; seeing one here means the wormhole state
                // machine broke.
                LOCSIM_PANIC("body flit with no route at node ", node_);
            }
            computeRoute(port, ivc);
        }
        // Try to claim the output VC (wormhole allocation). On
        // failure the cached route is kept and the claim retried
        // next cycle.
        OutputPort &out =
            outputs_[static_cast<std::size_t>(ivc.out_port)];
        std::int8_t &owner =
            out.owner[static_cast<std::size_t>(ivc.out_vc)];
        if (owner == -1) {
            owner = static_cast<std::int8_t>(unit);
            owned_ports_ |= 1u << ivc.out_port;
            ready_ports_ |= 1u << ivc.out_port;
            alloc_pending_ &= ~(1u << unit);
            ivc.routed = true;
        } else {
            // Output VC held by another packet: the head flit stalls
            // in place. Counted both globally and on the flit itself
            // (per-message contention attribution; saturating).
            alloc_stalls_.inc();
            Flit &head = ivc.bufFrontMut();
            if (head.stalls != UINT16_MAX)
                ++head.stalls;
            if (tracer_ != nullptr) {
                tracer_->instant(
                    trace_track_, now, "alloc_stall",
                    obs::Category::Net,
                    std::move(obs::Args()
                                  .add("msg", head.msg)
                                  .add("out_port", ivc.out_port)
                                  .add("out_vc", ivc.out_vc))
                        .str());
            }
        }
    }
}

void
Router::switchTraversal(sim::Tick now, CreditBox *const *outbox)
{
    (void)now; // only read when flit-level tracing is on
    // One bit per input port; ports are bounded well below 32
    // (2 * dims + 1), so a mask avoids a heap allocation per call.
    std::uint32_t input_port_used = 0;

    // Visit only output ports that might forward, in ascending port
    // order (the same order a full scan visits them). A port whose
    // owned VCs are all blocked on credits or upstream flits is
    // dropped from the ready set until one of those events re-arms it;
    // skipped ports forward nothing and mark nothing, so pruning them
    // cannot change which flits move.
    std::uint32_t scan = owned_ports_ & ready_ports_;
    if (scan == 0)
        return;
    while (scan != 0) {
        const int port = std::countr_zero(scan);
        scan &= scan - 1;
        OutputPort &out = outputs_[static_cast<std::size_t>(port)];
        const ChannelId link = out_links_[static_cast<std::size_t>(port)];
        if (link == kNoChannel)
            continue;
        bool forwarded = false;
        // Blocked only by the one-flit-per-input-port rule this cycle;
        // could forward next cycle without any new event, so the port
        // must stay armed.
        bool retry = false;
        // One flit per output port per cycle: round-robin over VCs.
        int vc = out.next_vc;
        for (int i = 0; i < config_.vcs;
             ++i, vc = vc + 1 == config_.vcs ? 0 : vc + 1) {
            const int owner = out.owner[static_cast<std::size_t>(vc)];
            if (owner == -1)
                continue;
            const int in_port =
                unit_port_[static_cast<std::size_t>(owner)];
            const int in_vc = unit_vc_[static_cast<std::size_t>(owner)];
            if (input_port_used & (1u << in_port)) {
                retry = true;
                continue;
            }
            InputVc &ivc = inputVc(in_port, in_vc);
            if (ivc.bufEmpty())
                continue; // re-armed by receiveFlits
            if (out.credits[static_cast<std::size_t>(vc)] <= 0)
                continue; // re-armed by receiveCredit

            // Copy the flit straight into its staged link slot and
            // rewrite link-level fields in place (one 32-byte copy per
            // hop instead of buffer -> stack -> link).
            Flit &flit = flit_store_.stage(link);
            flit = ivc.bufFront();
            ivc.bufPop();
            --*buffered_;
            input_port_used |= 1u << in_port;

            // Return a credit upstream for the freed buffer slot: the
            // local endpoint banks it (tickInjection runs before any
            // router, so the bank is first read next cycle); a
            // neighbor router receives it as mail applied at the start
            // of the next cycle.
            if (in_port == localPort()) {
                ++*inject_bank_;
            } else {
                const CreditReturn &up =
                    credit_up_[static_cast<std::size_t>(in_port)];
                outbox[up.shard]->mail.push_back(
                    {up.node, up.port, static_cast<std::uint8_t>(in_vc)});
            }

            // Rewrite link-level VC and dateline state.
            const bool to_neighbor = port != localPort();
            if (flit.head && to_neighbor) {
                flit.crossed_dateline = (ivc.out_vc == 1);
                // One more physical link traversed (attribution).
                if (flit.hops != UINT16_MAX)
                    ++flit.hops;
            }
            flit.vc = static_cast<std::uint8_t>(vc);

            --out.credits[static_cast<std::size_t>(vc)];
            output_flits_[static_cast<std::size_t>(port)].inc();
            if (tracer_ != nullptr) {
                tracer_->instant(
                    trace_track_, now, "flit", obs::Category::Net,
                    std::move(obs::Args()
                                  .add("msg", flit.msg)
                                  .add("seq", flit.seq)
                                  .add("port", port)
                                  .add("vc", vc))
                        .str());
                tracer_->instant(
                    trace_track_, now, "credit", obs::Category::Net,
                    std::move(obs::Args()
                                  .add("port", in_port)
                                  .add("vc", in_vc))
                        .str());
            }

            if (flit.tail) {
                out.owner[static_cast<std::size_t>(vc)] = -1;
                ivc.routed = false;
                ivc.route_valid = false;
                ivc.out_port = -1;
                ivc.out_vc = -1;
                // The next packet's head flit (if already buffered)
                // needs an output VC of its own.
                if (!ivc.bufEmpty())
                    alloc_pending_ |= 1u << owner;
                bool any_owner = false;
                for (int v = 0; v < config_.vcs; ++v) {
                    if (out.owner[static_cast<std::size_t>(v)] != -1) {
                        any_owner = true;
                        break;
                    }
                }
                if (!any_owner)
                    owned_ports_ &= ~(1u << port);
            }
            out.next_vc = static_cast<std::int8_t>(
                vc + 1 == config_.vcs ? 0 : vc + 1);
            forwarded = true;
            break;
        }
        if (!forwarded && !retry)
            ready_ports_ &= ~(1u << port);
    }
}

void
Router::tick(sim::Tick now, CreditBox *const *outbox)
{
    if (*flit_wake_ != 0)
        receiveFlits();
    // Both remaining phases only act on buffered flits (an output VC
    // owner with an empty input buffer is waiting on upstream body
    // flits and makes no progress).
    if (*buffered_ == 0)
        return;
    routeAndAllocate(now);
    switchTraversal(now, outbox);
}

std::size_t
Router::bufferedFlits() const
{
    return *buffered_;
}

} // namespace net
} // namespace locsim
