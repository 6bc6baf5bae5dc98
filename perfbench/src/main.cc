/**
 * @file
 * flexbench: the FlexCore benchmark.
 *
 *   flexbench --workload suite-interp --seed 1 --seconds 30 --trace 0
 *   flexbench --record-digests perfbench/digests.tsv
 *
 * Human-readable lines go to stdout first; the last stdout line is one
 * JSON object {"correct", "attempted", "failed", "metrics"}. The exit
 * status is 0 only when every checked operation was correct.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "bench.h"
#include "common/jsonutil.h"
#include "metrics.h"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "flexbench: %s\n"
                 "usage: flexbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--digests FILE] [--work-dir DIR]\n"
                 "       flexbench --record-digests FILE\n"
                 "workloads: suite-interp, suite-fast, multicore-dift, "
                 "serve-mix\n",
                 why);
    return 2;
}

bool
parseU64(std::string_view text, flexbench::u64 *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const std::string s(text);
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (*end != '\0')
        return false;
    *out = v;
    return true;
}

}  // namespace

int
main(int argc, char **argv)
{
    if (flexbench::isDebugBuild()) {
        std::fprintf(stderr,
                     "flexbench: refusing to measure a Debug build: "
                     "threaded runs lockstep-check against the "
                     "interpreter there, so it is a different program\n");
        return 2;
    }

    flexbench::Options options;
    std::string record_path;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value after an option");
        const std::string_view value = argv[++i];
        flexbench::u64 number = 0;
        if (arg == "--workload") {
            if (!flexbench::parseWorkloadId(value, &options.workload))
                return usage("unknown workload");
            have_workload = true;
        } else if (arg == "--seed") {
            if (!parseU64(value, &options.seed))
                return usage("--seed takes a whole number");
        } else if (arg == "--seconds") {
            if (!parseU64(value, &number) || number == 0 || number > 600)
                return usage("--seconds takes a whole number in 1..600");
            options.seconds = static_cast<double>(number);
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            options.trace = value == "1";
        } else if (arg == "--digests") {
            options.digests_path = value;
        } else if (arg == "--work-dir") {
            options.work_dir = value;
        } else if (arg == "--record-digests") {
            record_path = value;
        } else {
            return usage("unknown option");
        }
    }

    if (!record_path.empty()) {
        std::string error;
        if (!flexbench::recordDigests(record_path, &error)) {
            std::fprintf(stderr, "flexbench: %s\n", error.c_str());
            return 1;
        }
        std::printf("recorded digests to %s\n", record_path.c_str());
        return 0;
    }
    if (!have_workload)
        return usage("--workload is required");

    std::printf("flexbench: workload %s, seed %llu, %g s, trace %d\n",
                std::string(flexbench::workloadIdName(options.workload))
                    .c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    std::printf("host: %s\n", flexbench::hostFingerprintJson().c_str());
    std::fflush(stdout);

    const flexbench::Report report = flexbench::runBenchmark(options);

    for (const flexbench::Metric &m : report.metrics) {
        std::printf("%-44s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("fail_ratio: %llu failed of %llu checked\n",
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    for (const std::string &why : report.failures)
        std::printf("FAILED %s\n", why.c_str());

    const bool correct = report.failed == 0 && report.attempted > 0;
    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const flexbench::Metric &m = report.metrics[i];
        if (i > 0)
            line += ", ";
        line += "\"" + flexcore::jsonEscape(m.name) + "\": {\"value\": " +
                flexbench::jsonNumber(m.value) + ", \"unit\": \"" +
                flexcore::jsonEscape(m.unit) + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return correct ? 0 : 1;
}
