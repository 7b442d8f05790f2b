/**
 * @file
 * Per-run JSON manifest ("run report"): the machine-readable artifact
 * every harness can emit via --run-report PATH, recording what ran
 * (tool, argv, config, per-simulation cache keys), on what (build
 * provenance, host), what it counted (the process counter registry,
 * cache stats via counters), and where host time went (the phase
 * profiler's per-shard breakdown).
 *
 * Schema "locsim-run-report-v1". Layout contract: every field that
 * can differ between two identical invocations (wall-clock times,
 * phase nanoseconds) lives under the top-level "profile" object, so
 * "manifest minus the profile subtree" is byte-deterministic for a
 * fixed command line — the property tests/profiler_test.cc pins and
 * the future sweep service will rely on for artifact dedup.
 */

#ifndef LOCSIM_OBS_REPORT_HH_
#define LOCSIM_OBS_REPORT_HH_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace locsim {
namespace obs {

class Profiler;

/** Builder for one run manifest. */
class RunReport
{
  public:
    explicit RunReport(std::string tool);

    /** Record the invocation's argv (argv[0] included). */
    void setArgv(int argc, const char *const *argv);
    void setArgv(std::vector<std::string> argv);

    /** @name Config section (insertion order preserved). */
    ///@{
    void addConfig(const std::string &name, const std::string &value);
    void addConfig(const std::string &name, const char *value);
    void addConfig(const std::string &name, long long value);
    void addConfig(const std::string &name, std::uint64_t value);
    void addConfig(const std::string &name, bool value);
    void addConfig(const std::string &name, double value);
    ///@}

    /** One simulated point: display label + content-address key
     *  (empty when no cache key was derived). */
    void addSimulation(const std::string &label,
                       const std::string &sim_key);

    /** The counters section (typically CounterRegistry snapshot). */
    void setCounters(
        std::vector<std::pair<std::string, std::uint64_t>> counters);

    /**
     * Attach the profile section: the profiler's totals (null =
     * profiling disabled; the section is still emitted with
     * "enabled": false) and the run's wall-clock seconds. The
     * profiler is read at write() time, not here.
     */
    void setProfile(const Profiler *profiler, double wall_seconds);

    /** Emit the manifest. */
    void write(std::ostream &os) const;

    /** write() to @p path; fatal when the file cannot be opened. */
    void writeFile(const std::string &path) const;

  private:
    struct ConfigEntry
    {
        std::string name;
        std::string rendered; //!< pre-rendered JSON value
    };

    std::string tool_;
    std::vector<std::string> argv_;
    std::vector<ConfigEntry> config_;
    std::vector<std::pair<std::string, std::string>> simulations_;
    std::vector<std::pair<std::string, std::uint64_t>> counters_;
    const Profiler *profiler_ = nullptr;
    double wall_seconds_ = 0.0;
};

/**
 * Human-readable phase breakdown of @p profiler (the micro_perf
 * --profile stdout table): one row per phase with its share of the
 * run's total, preceded by a per-shard barrier-wait summary when the
 * grid has more than one shard.
 */
void writeProfileTable(std::ostream &os, const Profiler &profiler,
                       const std::string &title);

} // namespace obs
} // namespace locsim

#endif // LOCSIM_OBS_REPORT_HH_
