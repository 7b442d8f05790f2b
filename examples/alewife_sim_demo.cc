/**
 * @file
 * Full-system simulation demo: runs the cycle-level Alewife-like
 * simulator (flit-level torus network, directory coherence, block-
 * multithreaded processors) on the synthetic nearest-neighbour
 * application under a chosen thread-to-processor mapping, then
 * compares the measurements with the combined model's prediction.
 *
 *   ./alewife_sim_demo --mapping random --contexts 2 --window 30000
 *
 * Observability: --trace-out dumps a Chrome trace_event JSON of the
 * run (add --trace-detail flit for per-flit events), --sample-period
 * prints the metrics sampler's time-series as CSV on stdout, and
 * --log-level controls verbosity.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "cache/key.hh"
#include "machine/calibration.hh"
#include "machine/machine.hh"
#include "model/alewife.hh"
#include "model/combined_model.hh"
#include "obs/build_info.hh"
#include "obs/counters.hh"
#include "obs/profiler.hh"
#include "obs/report.hh"
#include "obs/sampler.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/table.hh"
#include "workload/mapping.hh"

using namespace locsim;

int
main(int argc, char **argv)
{
    util::OptionParser opts("alewife_sim_demo",
                            "cycle-level simulation of the Section 3 "
                            "validation platform");
    opts.addString("mapping",
                   "identity | random | one of the experiment family "
                   "names",
                   "random");
    opts.addInt("contexts", "hardware contexts (1, 2, or 4)", 1);
    opts.addInt("warmup", "warmup processor cycles", 6000);
    opts.addInt("window", "measurement window processor cycles",
                20000);
    opts.addInt("seed", "seed for random mappings", 12345);
    opts.addFlag("build-info",
                 "print build provenance (git SHA, compiler, flags) "
                 "and exit");
    util::addObservabilityOptions(opts);
    opts.parse(argc, argv);
    if (opts.getFlag("build-info")) {
        obs::printBuildInfo(std::cout);
        return 0;
    }
    const util::ObservabilityOptions obs =
        util::applyObservabilityOptions(opts);
    const auto start_time = std::chrono::steady_clock::now();

    net::TorusTopology topo(8, 2);
    const std::string which = opts.getString("mapping");
    const auto family = workload::experimentMappings(
        topo, static_cast<std::uint64_t>(opts.getInt("seed")));
    const workload::NamedMapping *chosen = nullptr;
    for (const auto &named : family) {
        if (named.name == which)
            chosen = &named;
    }
    if (chosen == nullptr) {
        std::fprintf(stderr, "available mappings:");
        for (const auto &named : family)
            std::fprintf(stderr, " %s", named.name.c_str());
        std::fprintf(stderr, "\n");
        return 1;
    }

    machine::MachineConfig config;
    config.contexts = static_cast<int>(opts.getInt("contexts"));
    config.trace.enabled = !obs.trace_out.empty();
    config.trace.detail = obs.flit_detail ? obs::TraceDetail::Flit
                                          : obs::TraceDetail::Message;
    config.sample_period = static_cast<sim::Tick>(obs.sample_period);

    // --run-report: profile the run on a (resolved shards) x 1 grid.
    std::unique_ptr<obs::Profiler> profiler;
    if (!obs.run_report.empty()) {
        const int shards = machine::Machine::resolveShardCount(
            config, topo.nodeCount());
        profiler = std::make_unique<obs::Profiler>(shards);
        config.profiler = profiler.get();
    }
    // Heap-held so the machine can be destroyed (publishing its
    // process counters) before the run manifest snapshots them.
    auto machine_ptr =
        std::make_unique<machine::Machine>(config, chosen->mapping);
    machine::Machine &machine = *machine_ptr;

    std::printf("simulating 64-node radix-8 2-D torus, %d context(s), "
                "mapping '%s' (d = %.2f)...\n",
                config.contexts, chosen->name.c_str(),
                chosen->avg_distance);
    const machine::Measurement m = machine.run(
        static_cast<std::uint64_t>(opts.getInt("warmup")),
        static_cast<std::uint64_t>(opts.getInt("window")));

    std::printf("\nmeasured application parameters: T_r = %.1f, "
                "g = %.2f, c = %.2f, B = %.0f, T_f(fit) = %.1f "
                "(network cycles)\n",
                m.run_length, m.messages_per_txn,
                m.critical_messages, m.avg_flits,
                m.fitted_fixed_overhead);
    std::printf("coherence checks: %llu loop iterations, %llu "
                "ordering violations\n\n",
                static_cast<unsigned long long>(m.iterations),
                static_cast<unsigned long long>(m.violations));

    // Combined-model prediction from the measured parameters
    // (Section 3.3's validation methodology).
    const model::Prediction p = machine::predictFromMeasurement(
        m, config.contexts, m.avg_hops);

    util::TextTable table({"quantity", "simulated", "model"});
    auto row = [&](const char *name, double sim, double mod,
                   int precision) {
        table.newRow().cell(name).cell(sim, precision).cell(
            mod, precision);
    };
    row("message rate r_m", m.message_rate, p.injection_rate, 5);
    row("inter-message time t_m", m.inter_message_time,
        p.inter_message_time, 1);
    row("message latency T_m", m.message_latency, p.message_latency,
        1);
    row("channel utilization rho", m.utilization, p.utilization, 3);
    row("inter-txn time t_t", m.inter_txn_time, p.inter_txn_time, 1);
    row("transaction latency T_t", m.txn_latency, p.txn_latency, 1);
    table.print(std::cout);

    if (machine.sampler() != nullptr) {
        std::printf("\nmetrics samples (period %llu ticks):\n",
                    static_cast<unsigned long long>(
                        machine.sampler()->period()));
        machine.sampler()->writeCsv(std::cout);
    }
    if (machine.tracer() != nullptr) {
        std::ofstream trace_os(obs.trace_out);
        if (!trace_os)
            LOCSIM_FATAL("cannot open --trace-out file '",
                         obs.trace_out, "'");
        machine.writeTrace(trace_os);
        LOCSIM_INFORM("wrote trace to ", obs.trace_out);
    }

    if (!obs.run_report.empty()) {
        const int shards = machine.shards();
        machine_ptr.reset(); // publish the machine's counters
        const auto warmup =
            static_cast<std::uint64_t>(opts.getInt("warmup"));
        const auto window =
            static_cast<std::uint64_t>(opts.getInt("window"));
        obs::RunReport report("alewife_sim_demo");
        report.setArgv(argc, argv);
        report.addConfig("mapping", chosen->name);
        report.addConfig("contexts",
                         static_cast<long long>(config.contexts));
        report.addConfig("warmup", static_cast<long long>(warmup));
        report.addConfig("window", static_cast<long long>(window));
        report.addConfig("seed", opts.getInt("seed"));
        report.addConfig("shards", static_cast<long long>(shards));
        report.addConfig("sample_period",
                         static_cast<long long>(config.sample_period));
        report.addSimulation(
            chosen->name + ".p" + std::to_string(config.contexts),
            cache::simKey(config, chosen->mapping, warmup, window));
        report.setCounters(
            obs::CounterRegistry::process().snapshot());
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_time)
                .count();
        report.setProfile(profiler.get(), wall);
        report.writeFile(obs.run_report);
        LOCSIM_INFORM("wrote run manifest to ", obs.run_report);
    }
    return 0;
}
