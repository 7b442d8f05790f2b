/**
 * @file
 * Full-machine assembly: the Alewife-like multiprocessor of
 * Section 3.1. One object wires the cycle engine, the torus network
 * (network clock), and per-node cache controllers and block-
 * multithreaded processors (processor clock, half the network clock
 * by default), runs the synthetic application, and produces the
 * measurements the paper's validation figures plot (t_m, T_m, t_t,
 * T_t, d, rho, and the fitted transaction-model constants).
 */

#ifndef LOCSIM_MACHINE_MACHINE_HH_
#define LOCSIM_MACHINE_MACHINE_HH_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "coher/controller.hh"
#include "net/network.hh"
#include "obs/profiler.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "proc/processor.hh"
#include "runner/runner.hh"
#include "sim/engine.hh"
#include "sim/lockstep.hh"
#include "util/serialize.hh"
#include "workload/comm_graph.hh"
#include "workload/graph_app.hh"
#include "workload/mapping.hh"
#include "workload/torus_app.hh"
#include "workload/uniform_app.hh"

namespace locsim {
namespace machine {

/** Which synthetic application the machine runs. */
enum class WorkloadKind {
    /** Section 3.2's nearest-neighbour application (the default). */
    TorusNeighbor,
    /** Uniform-random communication: no physical locality at all. */
    UniformRandom,
    /**
     * The nearest-neighbour loop over an arbitrary communication
     * graph supplied in MachineConfig::graph.
     */
    Graph,
};

/** Full-machine configuration. */
struct MachineConfig
{
    /** Torus shape (Section 3: radix-8, 2-D, 64 nodes). */
    int radix = 8;
    int dims = 2;
    /** Torus (the paper's simulations) or mesh (physical Alewife). */
    bool wraparound = true;

    /** Hardware contexts per processor (1, 2, or 4 in the paper). */
    int contexts = 1;

    /**
     * Network clock ticks per processor cycle ("network switches are
     * clocked twice as fast as processors").
     */
    std::uint32_t net_clock_ratio = 2;

    proc::ProcessorConfig processor;
    coher::ProtocolConfig protocol;
    net::RouterConfig router;

    /**
     * Drive the engine in reference (dumb-stepping) mode instead of
     * activity tracking. Both produce identical results; reference
     * mode exists as the oracle for equivalence tests.
     */
    bool reference_stepping = false;

    /**
     * Intra-simulation parallelism: partition the torus into this many
     * contiguous spatial shards, each driven by its own engine on its
     * own thread, synchronized conservatively every network cycle
     * (latched channels provide one cycle of lookahead — see
     * docs/SHARDING.md). Results — statistics, sampled series, and
     * checkpoints — are bit-identical for every shard count.
     *
     * 0 (the default) resolves to the LOCSIM_SHARDS environment
     * variable when set (clamped to the node count), else 1
     * (sequential, the unchanged single-engine path). Explicit values
     * must be in [1, node count]; anything else is fatal.
     */
    int shards = 0;

    WorkloadKind workload = WorkloadKind::TorusNeighbor;
    workload::TorusAppConfig app;
    workload::UniformAppConfig uniform_app;
    /** Required when workload == WorkloadKind::Graph. */
    std::shared_ptr<const workload::CommGraph> graph;

    /**
     * Structured event tracing (off by default). When enabled the
     * machine owns one obs::Tracer shard wired through every layer:
     * engine run/fast-forward spans, per-node network message spans
     * (flit detail optional), coherence protocol events, and
     * processor context switches.
     */
    obs::TraceConfig trace;

    /**
     * Metrics sampler period in network cycles; 0 (default) disables
     * the sampler. When set, a low-rate Clocked probe snapshots
     * channel utilization (rho), injection rate (r_m), observed
     * message latency (T_m), buffered flits, and allocation stalls.
     */
    sim::Tick sample_period = 0;

    /**
     * Host-side phase profiler (off by default; not owned, must
     * outlive the machine). When set, the machine wires phase slots
     * through every layer: engine dispatch/rotation/quiescence,
     * lockstep barrier waits, router scans and coherence ticks on
     * their shard's slot, checkpoint save/restore on slot 0. A
     * host-only observer: it never influences
     * simulated results and is excluded from the simulation cache key.
     */
    obs::Profiler *profiler = nullptr;
};

/**
 * Measurements over one window, all times in network cycles
 * (simulation ticks). Naming follows the paper's nomenclature
 * (Appendix A).
 */
struct Measurement
{
    double window = 0.0;           //!< measurement length, net cycles
    std::uint64_t transactions = 0;
    std::uint64_t messages = 0;

    double inter_txn_time = 0.0;   //!< t_t (per node)
    double txn_latency = 0.0;      //!< T_t (mean)
    double txn_rate = 0.0;         //!< r_t = 1/t_t
    double inter_message_time = 0.0; //!< t_m (per node)
    double message_latency = 0.0;  //!< T_m (mean, network portion)
    double message_latency_p50 = 0.0; //!< median network latency
    double message_latency_p95 = 0.0; //!< 95th-percentile latency
    double message_rate = 0.0;     //!< r_m = 1/t_m
    double source_queue_wait = 0.0; //!< mean wait before injection
    double avg_hops = 0.0;         //!< measured d
    double utilization = 0.0;      //!< measured rho
    double avg_flits = 0.0;        //!< measured B

    double messages_per_txn = 0.0; //!< measured g
    double critical_messages = 0.0; //!< measured c
    /**
     * Measured effective T_r per transaction in network cycles: all
     * non-idle, non-switch processor time (useful work, issue/resume
     * overhead, and hit service) divided by transactions.
     */
    double run_length = 0.0;
    /** Context-switch cycles per transaction, network cycles. */
    double switch_overhead = 0.0;
    /** T_f fitted as mean(T_t) - c*mean(T_m). */
    double fitted_fixed_overhead = 0.0;

    double hit_rate = 0.0;
    std::uint64_t iterations = 0;  //!< app loop iterations completed
    std::uint64_t violations = 0;  //!< coherence-order violations

    /**
     * Per-class latency decomposition sums over the window, indexed
     * by net::MessageClass (always filled; zero when no traffic of a
     * class was delivered).
     */
    std::array<net::ClassAttribution, net::kMessageClassCount>
        attribution{};
};

/**
 * Serialize a Measurement bit-exactly (doubles round-trip through
 * their IEEE-754 bit patterns). This is the payload format of the
 * content-addressed simulation cache.
 */
void saveMeasurement(util::Serializer &s, const Measurement &m);
Measurement loadMeasurement(util::Deserializer &d);

/**
 * The LSCK checkpoint format version Machine::saveCheckpoint emits
 * (and restoreCheckpoint requires). Content-addressed stores of
 * checkpoint images fold it into their keys so a layout bump retires
 * stored images without a scan (see cache::prefixKey).
 */
std::uint32_t checkpointFormatVersion();

/** The assembled machine. */
class Machine : private sim::LockstepSerial
{
  public:
    /**
     * @param config machine knobs.
     * @param mapping thread placement (copied).
     */
    Machine(const MachineConfig &config,
            const workload::Mapping &mapping);
    ~Machine();

    /**
     * The shard count @p config resolves to on a machine of @p nodes
     * nodes (explicit value, LOCSIM_SHARDS, or 1; fatal on nonsense).
     */
    static int resolveShardCount(const MachineConfig &config,
                                 sim::NodeId nodes);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Average communication distance implied by the mapping. */
    double mappingDistance() const;

    /**
     * Resident bytes of the machine's major per-node containers
     * (caches, directories, transaction pools, queues, processors,
     * programs, network fabric). Deterministic explicit accounting —
     * not RSS — so the value is portable across hosts and gateable;
     * published as `mem.bytes_per_node` (divided by the node count)
     * in the process counter registry on teardown.
     */
    std::size_t memoryBytes() const;

    /**
     * Run @p warmup processor cycles, reset statistics, run
     * @p window processor cycles, and report measurements.
     * Equivalent to advance(warmup) followed by measure(window).
     */
    Measurement run(std::uint64_t warmup, std::uint64_t window);

    /** Advance @p cycles processor cycles without touching stats. */
    void advance(std::uint64_t cycles);

    /**
     * Reset statistics, run @p window processor cycles, and report
     * measurements over that window.
     */
    Measurement measure(std::uint64_t window);

    /**
     * Serialize the complete simulation state — timeline, network
     * fabric, every controller, processor, and workload program — so
     * the run can later be resumed on a freshly constructed Machine
     * with identical configuration. Restoring and continuing is
     * bit-identical to never having stopped.
     *
     * The image is independent of the shard count: a checkpoint taken
     * at any shards() restores on a machine with any other (identical
     * machine configuration otherwise), byte-identically.
     *
     * Requires tracing and sampling off (their state references live
     * tracks and rate windows that cannot survive a restore).
     */
    std::vector<std::uint8_t> saveCheckpoint() const;

    /**
     * Restore state saved by saveCheckpoint(). Must be called on a
     * freshly constructed Machine (time still at zero) with the same
     * configuration (any shard count) and mapping as the saving
     * machine.
     *
     * @throws std::runtime_error on a malformed or mismatched image.
     */
    void restoreCheckpoint(const std::vector<std::uint8_t> &bytes);

    const MachineConfig &config() const { return config_; }

    /**
     * Shard 0's engine (the only engine when shards() == 1). On a
     * sharded machine it reports the shared timeline (now(), skipped
     * ticks), but must not be run() directly — drive the machine via
     * advance()/measure() so every shard moves together.
     */
    sim::Engine &engine() { return *engines_.front(); }

    /** Resolved shard count (>= 1; see MachineConfig::shards). */
    int shards() const { return shards_; }

    net::Network &network() { return *network_; }
    coher::CacheController &controller(sim::NodeId node);

    /** The trace shard, or null when config().trace.enabled is off. */
    obs::Tracer *tracer() { return tracer_.get(); }

    /**
     * Shared ownership of the trace shard, so a runner can keep the
     * shard alive after the machine is destroyed and merge shards
     * from a sweep deterministically (submission order).
     */
    std::shared_ptr<obs::Tracer> shareTracer() const
    {
        return tracer_;
    }

    /** Serialize this machine's trace shard (requires tracing on). */
    void writeTrace(std::ostream &os) const;

    /** The metrics sampler, or null when sample_period is 0. */
    obs::MetricsSampler *sampler() { return sampler_.get(); }

    /**
     * The torus-neighbour program of (node, context).
     * @pre config().workload == WorkloadKind::TorusNeighbor.
     */
    const workload::TorusNeighborProgram &
    program(sim::NodeId node, int context) const;

  private:
    void resetStats();

    /** Advance all shards @p ticks network cycles (engine ticks). */
    void runTicks(sim::Tick ticks);

    /** The conservative lockstep driver (shards() > 1 only). */
    void runSharded(sim::Tick ticks);

    /**
     * @name sim::LockstepSerial: serial-point sampler stepping
     * With several shards the sampler is ticked at the serial point
     * of the lockstep window rather than by an engine; these apply
     * the same due/credit arithmetic Engine uses for Clocked
     * components, against next_sample_due_.
     */
    ///@{
    bool serialDue(sim::Tick now) const override;
    void serialTick(sim::Tick now) override;
    void serialSkip(sim::Tick target) override;
    ///@}

    MachineConfig config_;
    workload::Mapping mapping_;
    int shards_ = 1;
    /** The K shard engines this machine owns. */
    std::vector<std::unique_ptr<sim::Engine>> owned_engines_;
    /** The same engines as raw pointers, by shard (the form the
     *  network and the lockstep driver take). */
    std::vector<sim::Engine *> engines_;
    std::unique_ptr<net::Network> network_;
    std::vector<std::unique_ptr<coher::CacheController>> controllers_;
    std::vector<std::unique_ptr<proc::ThreadProgram>> programs_;
    std::vector<std::unique_ptr<proc::Processor>> processors_;

    /** Long-lived workers for the shard lanes (K > 1 only). */
    std::unique_ptr<runner::ThreadPool> shard_pool_;

    /** Per-shard skipped-tick snapshot reused across runSharded()
     *  calls so the hot path stays allocation-free. */
    std::vector<sim::Tick> shard_skipped_scratch_;

    /** Per-shard trace shards; tracer_ aliases entry 0. */
    std::vector<std::shared_ptr<obs::Tracer>> shard_tracers_;
    std::shared_ptr<obs::Tracer> tracer_;
    std::vector<std::unique_ptr<coher::ObsTracerBridge>>
        coher_bridges_;
    std::unique_ptr<obs::MetricsSampler> sampler_;
    /**
     * When K > 1 the sampler is driven by the lockstep driver rather
     * than an engine (it probes whole-fabric state, so it must run at
     * the serial point of a window); this mirrors its next due tick
     * with the same arithmetic Engine uses.
     */
    sim::Tick next_sample_due_ = 0;
};

} // namespace machine
} // namespace locsim

#endif // LOCSIM_MACHINE_MACHINE_HH_
