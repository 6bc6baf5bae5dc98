#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string_view>

#include <sys/resource.h>
#include <unistd.h>

#include "common/jsonutil.h"

#ifndef FLEXBENCH_BUILD_TYPE
#define FLEXBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FLEXBENCH_COMPILER
#define FLEXBENCH_COMPILER "unknown"
#endif

namespace flexbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Percentile
percentile(std::vector<double> values, double p)
{
    Percentile out;
    out.p = p;
    out.count = values.size();
    if (values.empty())
        return out;
    // Nearest rank: the smallest value with at least p of the sample
    // at or below it.
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(p * static_cast<double>(
                                                 values.size()) -
                                         1e-9)));
    out.beyond = values.size() - rank;
    out.reportable = out.beyond >= kMinSamplesBeyond;
    if (out.reportable) {
        std::nth_element(values.begin(), values.begin() + (rank - 1),
                         values.end());
        out.value = values[rank - 1];
    }
    return out;
}

std::string
Percentile::describe(const std::string &unit) const
{
    char name[16];
    std::snprintf(name, sizeof name, "p%g", p * 100);
    char buf[160];
    if (reportable) {
        std::snprintf(buf, sizeof buf, "%s=%.4f %s (n=%zu, %zu beyond)",
                      name, value, unit.c_str(), count, beyond);
    } else {
        std::snprintf(buf, sizeof buf,
                      "%s not reported (n=%zu, %zu beyond < %zu)", name,
                      count, beyond, kMinSamplesBeyond);
    }
    return buf;
}

double
peakRssMb()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
hostFingerprintJson()
{
    std::string cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos) {
                cpu = line.substr(colon + 1);
                cpu.erase(0, cpu.find_first_not_of(' '));
            }
            break;
        }
    }
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    return "{\"cpu\": \"" + flexcore::jsonEscape(cpu) +
           "\", \"nproc\": " + std::to_string(nproc) +
           ", \"compiler\": \"" + flexcore::jsonEscape(FLEXBENCH_COMPILER) +
           "\", \"build_type\": \"" +
           flexcore::jsonEscape(FLEXBENCH_BUILD_TYPE) + "\"}";
}

bool
isDebugBuild()
{
#ifndef NDEBUG
    return true;
#else
    return std::string_view(FLEXBENCH_BUILD_TYPE) == "Debug";
#endif
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace flexbench
