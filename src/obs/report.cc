/**
 * @file
 * RunReport implementation: a small streaming JSON emitter (no
 * library dependency; ASCII-only output the minimal validator in
 * tests/json_checker.hh accepts) plus the host/profile sections.
 */

#include "obs/report.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/build_info.hh"
#include "obs/profiler.hh"
#include "util/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace locsim {
namespace obs {

namespace {

/** Escape a string for a JSON literal (ASCII-only output). */
std::string
jsonEscape(const std::string &in)
{
    std::string out;
    out.reserve(in.size() + 2);
    for (const char c : in) {
        const auto u = static_cast<unsigned char>(c);
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (u < 0x20 || u >= 0x80) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", u);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

std::string
jsonString(const std::string &in)
{
    return "\"" + jsonEscape(in) + "\"";
}

/** Render a double compactly; JSON has no inf/nan, clamp to 0. */
std::string
jsonNumber(double value)
{
    if (!(value == value) || value > 1e308 || value < -1e308)
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return buf;
}

std::string
hostName()
{
#if defined(__unix__) || defined(__APPLE__)
    char buf[256] = {0};
    if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0')
        return buf;
#endif
    return "unknown";
}

const char *
hostOs()
{
#if defined(__linux__)
    return "linux";
#elif defined(__APPLE__)
    return "darwin";
#elif defined(_WIN32)
    return "windows";
#else
    return "unknown";
#endif
}

const char *
hostArch()
{
#if defined(__x86_64__) || defined(_M_X64)
    return "x86_64";
#elif defined(__aarch64__)
    return "aarch64";
#elif defined(__arm__)
    return "arm";
#else
    return "unknown";
#endif
}

void
writePhases(std::ostream &os, const PhaseTotals &totals,
            const char *indent)
{
    os << "{";
    bool first = true;
    for (int p = 0; p < kPhaseCount; ++p) {
        const auto i = static_cast<std::size_t>(p);
        if (totals.count[i] == 0)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "\n" << indent << "  "
           << jsonString(phaseName(static_cast<Phase>(p)))
           << ": {\"ns\": " << totals.ns[i]
           << ", \"count\": " << totals.count[i] << "}";
    }
    if (!first)
        os << "\n" << indent;
    os << "}";
}

/** max/mean of per-entry totals (1.0 for empty or all-zero). */
double
maxOverMean(const std::vector<std::uint64_t> &totals)
{
    std::uint64_t max = 0, sum = 0;
    for (const std::uint64_t v : totals) {
        sum += v;
        if (v > max)
            max = v;
    }
    if (totals.empty() || sum == 0)
        return 1.0;
    const double mean = static_cast<double>(sum) /
                        static_cast<double>(totals.size());
    return static_cast<double>(max) / mean;
}

} // namespace

RunReport::RunReport(std::string tool) : tool_(std::move(tool)) {}

void
RunReport::setArgv(int argc, const char *const *argv)
{
    argv_.assign(argv, argv + argc);
}

void
RunReport::setArgv(std::vector<std::string> argv)
{
    argv_ = std::move(argv);
}

void
RunReport::addConfig(const std::string &name, const std::string &value)
{
    config_.push_back({name, jsonString(value)});
}

void
RunReport::addConfig(const std::string &name, const char *value)
{
    addConfig(name, std::string(value));
}

void
RunReport::addConfig(const std::string &name, long long value)
{
    config_.push_back({name, std::to_string(value)});
}

void
RunReport::addConfig(const std::string &name, std::uint64_t value)
{
    config_.push_back({name, std::to_string(value)});
}

void
RunReport::addConfig(const std::string &name, bool value)
{
    config_.push_back({name, value ? "true" : "false"});
}

void
RunReport::addConfig(const std::string &name, double value)
{
    config_.push_back({name, jsonNumber(value)});
}

void
RunReport::addSimulation(const std::string &label,
                         const std::string &sim_key)
{
    simulations_.emplace_back(label, sim_key);
}

void
RunReport::setCounters(
    std::vector<std::pair<std::string, std::uint64_t>> counters)
{
    counters_ = std::move(counters);
}

void
RunReport::setProfile(const Profiler *profiler, double wall_seconds)
{
    profiler_ = profiler;
    wall_seconds_ = wall_seconds;
}

void
RunReport::write(std::ostream &os) const
{
    os << "{\n";
    os << "  \"schema\": \"locsim-run-report-v1\",\n";
    os << "  \"tool\": " << jsonString(tool_) << ",\n";

    os << "  \"argv\": [";
    for (std::size_t i = 0; i < argv_.size(); ++i)
        os << (i > 0 ? ", " : "") << jsonString(argv_[i]);
    os << "],\n";

    os << "  \"build\": {\n"
       << "    \"git_sha\": " << jsonString(buildGitSha()) << ",\n"
       << "    \"compiler\": " << jsonString(buildCompiler()) << ",\n"
       << "    \"flags\": " << jsonString(buildFlags()) << ",\n"
       << "    \"build_type\": " << jsonString(buildType()) << ",\n"
       << "    \"assertions\": "
       << (buildAssertionsEnabled() ? "true" : "false") << "\n"
       << "  },\n";

    os << "  \"host\": {\n"
       << "    \"hostname\": " << jsonString(hostName()) << ",\n"
       << "    \"cores\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "    \"os\": " << jsonString(hostOs()) << ",\n"
       << "    \"arch\": " << jsonString(hostArch()) << "\n"
       << "  },\n";

    os << "  \"config\": {";
    for (std::size_t i = 0; i < config_.size(); ++i) {
        os << (i > 0 ? "," : "") << "\n    "
           << jsonString(config_[i].name) << ": "
           << config_[i].rendered;
    }
    os << (config_.empty() ? "" : "\n  ") << "},\n";

    os << "  \"simulations\": [";
    for (std::size_t i = 0; i < simulations_.size(); ++i) {
        os << (i > 0 ? "," : "") << "\n    {\"label\": "
           << jsonString(simulations_[i].first)
           << ", \"sim_key\": " << jsonString(simulations_[i].second)
           << "}";
    }
    os << (simulations_.empty() ? "" : "\n  ") << "],\n";

    os << "  \"counters\": {";
    for (std::size_t i = 0; i < counters_.size(); ++i) {
        os << (i > 0 ? "," : "") << "\n    "
           << jsonString(counters_[i].first) << ": "
           << counters_[i].second;
    }
    os << (counters_.empty() ? "" : "\n  ") << "},\n";

    // Everything below is wall-clock-derived and therefore
    // nondeterministic across reruns; nothing nondeterministic may be
    // emitted outside this object (see the file comment).
    os << "  \"profile\": {\n"
       << "    \"enabled\": "
       << (profiler_ != nullptr ? "true" : "false") << ",\n"
       << "    \"wall_seconds\": " << jsonNumber(wall_seconds_);
    if (profiler_ != nullptr) {
        os << ",\n    \"phases\": ";
        writePhases(os, profiler_->totals(), "    ");

        std::vector<std::uint64_t> shard_ns;
        os << ",\n    \"shards\": [";
        for (int s = 0; s < profiler_->shards(); ++s) {
            const PhaseTotals t = profiler_->shardTotals(s);
            const std::uint64_t total = t.totalNs();
            const std::uint64_t barrier = t.ns[static_cast<std::size_t>(
                Phase::BarrierWait)];
            shard_ns.push_back(total);
            const double share =
                total > 0 ? static_cast<double>(barrier) /
                                static_cast<double>(total)
                          : 0.0;
            os << (s > 0 ? "," : "") << "\n      {\"shard\": " << s
               << ", \"total_ns\": " << total
               << ", \"barrier_wait_ns\": " << barrier
               << ", \"barrier_wait_share\": " << jsonNumber(share)
               << "}";
        }
        os << "\n    ],\n";

        os << "    \"imbalance\": {\"shard_max_over_mean\": "
           << jsonNumber(maxOverMean(shard_ns)) << "}";
    }
    os << "\n  }\n";
    os << "}\n";
}

void
RunReport::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        LOCSIM_FATAL("cannot open --run-report file '", path, "'");
    write(os);
    if (!os)
        LOCSIM_FATAL("error writing --run-report file '", path, "'");
}

void
writeProfileTable(std::ostream &os, const Profiler &profiler,
                  const std::string &title)
{
    const PhaseTotals grid = profiler.totals();
    const std::uint64_t grid_ns = grid.totalNs();
    os << "\n=== profile: " << title << " ===\n";
    if (grid_ns == 0) {
        os << "(no phases recorded)\n";
        return;
    }
    if (profiler.shards() > 1) {
        os << "per-shard barrier-wait share:\n";
        for (int s = 0; s < profiler.shards(); ++s) {
            const PhaseTotals t = profiler.shardTotals(s);
            const std::uint64_t total = t.totalNs();
            const std::uint64_t barrier =
                t.ns[static_cast<std::size_t>(Phase::BarrierWait)];
            char line[128];
            std::snprintf(line, sizeof(line),
                          "  shard %2d: %10.3f ms total, "
                          "barrier %6.2f%%\n",
                          s,
                          static_cast<double>(total) / 1e6,
                          total > 0
                              ? 100.0 * static_cast<double>(barrier) /
                                    static_cast<double>(total)
                              : 0.0);
            os << line;
        }
    }
    char head[96];
    std::snprintf(head, sizeof(head),
                  "phase shares (of %.3f ms in total):\n",
                  static_cast<double>(grid_ns) / 1e6);
    os << head;
    for (int p = 0; p < kPhaseCount; ++p) {
        const auto i = static_cast<std::size_t>(p);
        if (grid.count[i] == 0)
            continue;
        char line[128];
        std::snprintf(line, sizeof(line),
                      "  %-18s %10.3f ms  %6.2f%%  (%llu scopes)\n",
                      phaseName(static_cast<Phase>(p)),
                      static_cast<double>(grid.ns[i]) / 1e6,
                      100.0 * static_cast<double>(grid.ns[i]) /
                          static_cast<double>(grid_ns),
                      static_cast<unsigned long long>(grid.count[i]));
        os << line;
    }
}

} // namespace obs
} // namespace locsim
