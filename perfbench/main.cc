/**
 * @file
 * The repository benchmark's driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--scratch DIR] [--spans FILE]
 *
 * Repeats passes of one workload (see workloads.hh) until S seconds
 * have elapsed and prints, as its last stdout line, one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. Untraced runs
 * (--trace 0) report the end-to-end metrics; traced runs (--trace 1)
 * alternate untraced and traced passes and report the per-layer
 * metrics, writing every span to --spans at exit. Exits 1 when an
 * output check fails, 2 on bad usage or environment.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "obs/build_info.hh"
#include "util/simd.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    bool seed_set = false;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch = ".";
    std::string spans;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload grid8|radix32|"
                 "window_sweep [--seed N] [--seconds S] [--trace 0|1] "
                 "[--scratch DIR] [--spans FILE]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = value;
            } else if (flag == "--seed") {
                a.seed = std::stoull(value);
                a.seed_set = true;
            } else if (flag == "--seconds") {
                a.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                a.trace = value == "1";
            } else if (flag == "--scratch") {
                a.scratch = value;
            } else if (flag == "--spans") {
                a.spans = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("unknown workload '" + a.workload + "'");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    if (!a.seed_set)
        a.seed = defaultSeed(a.workload);
    return a;
}

/** CPUs this process may run on (what `nproc` prints). */
int
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

int
run(const Args &args)
{
    // Each of these silently changes what a workload runs.
    for (const char *var : {"LOCSIM_SHARDS", "LOCSIM_THREADS",
                            "LOCSIM_CACHE_DIR", "LOCSIM_SIMD"}) {
        if (std::getenv(var) != nullptr) {
            std::cerr << "perfbench: refusing to run with " << var
                      << " set; unset it\n";
            return 2;
        }
    }

    const int nproc = usableCpus();
    const Workload w = makeWorkload(args.workload, args.seed, nproc);
    const std::string host =
        "{\"nproc\": " + std::to_string(nproc) + ", \"cpu\": \"" +
        cpuModel() + "\", \"build_type\": \"" +
        locsim::obs::buildType() + "\", \"git_sha\": \"" +
        locsim::obs::buildGitSha() + "\", \"simd\": \"" +
        locsim::util::simd::levelName(locsim::util::simd::activeLevel()) +
        "\"}";
    std::cout << "host: " << host << "\n";
    std::cout << "workload: " << w.name << " seed " << args.seed
              << ", " << w.cells.size() << " cells, threads "
              << w.threads << ", shards " << w.shards << "\n";

    SpanLog spans;
    std::vector<PassResult> plain;
    std::vector<PassResult> traced;
    const auto start = Clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start)
            .count();
    };
    double peak_rss_mb = 0.0;
    int pass = 0;
    do {
        plain.push_back(runPass(w, args.scratch, nullptr, pass++));
        if (plain.size() == 1) {
            // The first pass's high-water mark; later passes only add
            // allocator fragmentation, which varies with pass count.
            rusage self{};
            getrusage(RUSAGE_SELF, &self);
            peak_rss_mb = static_cast<double>(self.ru_maxrss) / 1024.0;
        }
        if (args.trace) {
            spans.setPass(pass);
            traced.push_back(runPass(w, args.scratch, &spans, pass++));
        }
    } while (elapsed() < args.seconds);

    // Checks: every pass's cells, restored windows against fresh
    // runs, and identical simulated results in every pass, traced or
    // not.
    PassResult &first = plain.front();
    verifyRestores(w, first);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    for (const auto *set : {&plain, &traced}) {
        for (const PassResult &p : *set) {
            attempted += p.attempted;
            failed += p.failed;
            errors.insert(errors.end(), p.errors.begin(), p.errors.end());
            if (p.digest != first.digest)
                errors.push_back("pass results differ: " + p.digest +
                                 " vs " + first.digest);
            if (p.rate_err_pct != first.rate_err_pct ||
                p.gain_err_pct != first.gain_err_pct)
                errors.push_back("model error differs between passes");
        }
    }
    for (const std::string &e : errors)
        std::cerr << "check failed: " << e << "\n";
    const bool correct = errors.empty() && failed == 0;

    // Per-pass figures, reported as medians over passes. A pass's
    // cell time is its median cell: radix32's two cells differ ~2.5x,
    // and a median pooled over passes would sit between the two.
    std::vector<double> rates, setups, walls, cell_medians;
    std::size_t cells = 0;
    for (const PassResult &p : plain) {
        rates.push_back(p.node_cycles / p.wall_s);
        setups.push_back(p.setup_s);
        walls.push_back(p.wall_s);
        cell_medians.push_back(median(p.cell_s));
        cells += p.cell_s.size();
    }
    std::cout << "digest: " << w.name << " sha256 " << first.digest
              << "\npass walls (s):";
    for (const double wall : walls)
        std::cout << " " << wall;
    std::cout << "\n";
    std::cout << "passes: " << plain.size() << " untraced, "
              << traced.size() << " traced; cell_s_p50 over "
              << cells << " cells\n";

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"node_cycles_per_s", median(rates), "1/s"},
            {"cell_s_p50", median(cell_medians), "s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
            {"rate_err_pct", first.rate_err_pct, "%"},
            {"gain_err_pct", first.gain_err_pct, "%"},
        };
    } else {
        std::vector<double> traced_walls;
        for (const PassResult &p : traced)
            traced_walls.push_back(p.wall_s);
        for (std::size_t i = 0; i < traced.front().layer.size(); ++i) {
            std::vector<double> values;
            for (const PassResult &p : traced)
                values.push_back(p.layer[i].value);
            const Metric &m = traced.front().layer[i];
            metrics.push_back({m.name, median(values), m.unit});
        }
        metrics.push_back({"obs.traced_overhead",
                           median(traced_walls) / median(walls), "ratio"});
        // Self time (span minus its children) per call, summed over
        // the traced passes.
        std::map<std::string, SpanTotals> self;
        for (int p = 1; p < pass; p += 2) {
            for (const auto &[name, t] : spans.totals(p)) {
                self[name].total_ns += t.total_ns;
                self[name].self_ns += t.self_ns;
                self[name].count += t.count;
            }
        }
        std::cout << "self time by span (s, over " << traced.size()
                  << " traced passes):\n";
        for (const auto &[name, t] : self) {
            std::cout << "  " << name << ": " << 1e-9 * t.self_ns
                      << " of " << 1e-9 * t.total_ns << " in " << t.count
                      << " calls\n";
        }
        if (!args.spans.empty()) {
            std::ofstream os(args.spans);
            os << "{\"host\": " << host << ", \"workload\": \""
               << w.name << "\", \"seed\": " << args.seed
               << ", \"spans\": ";
            spans.write(os);
            os << "}\n";
            if (!os) {
                std::cerr << "perfbench: cannot write " << args.spans
                          << "\n";
                return 2;
            }
        }
    }

    for (const Metric &m : metrics)
        std::cout << "  " << m.name << " = " << m.value << "\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << buf << ", \"unit\": \""
                  << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &e) {
        // A pass that cannot run at all (unwritable scratch directory,
        // a cache error outside any cell) ends the run without a
        // result.
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
