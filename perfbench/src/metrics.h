/**
 * @file
 * Order statistics and host facts for the benchmark's reports: the
 * median, the percentile rule (a percentile is reported only when at
 * least ten samples lie beyond it), peak RSS and the host fingerprint
 * every result carries.
 */

#ifndef FLEXBENCH_METRICS_H_
#define FLEXBENCH_METRICS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace flexbench {

/** Median of @p values (mean of the middle two); 0 when empty. */
double median(std::vector<double> values);

/** Samples that must lie beyond a percentile for it to be reported. */
inline constexpr size_t kMinSamplesBeyond = 10;

/** A percentile of a sample, with the counts that qualify it. */
struct Percentile
{
    double p = 0;           //!< in (0, 1), e.g. 0.99
    size_t count = 0;       //!< samples
    size_t beyond = 0;      //!< samples strictly above the rank
    bool reportable = false;  //!< beyond >= kMinSamplesBeyond
    double value = 0;       //!< nearest-rank value; 0 if not reportable

    /** "p99=12.3 ms (n=2400, 24 beyond)" or "p99 not reported (...)". */
    std::string describe(const std::string &unit) const;
};

/** Nearest-rank percentile @p p of @p values, under the rule above. */
Percentile percentile(std::vector<double> values, double p);

/** Maximum resident set size of this process so far, MiB. */
double peakRssMb();

/** CPU model, online CPUs, compiler and build type, as one JSON
 * object. */
std::string hostFingerprintJson();

/** True when this binary was built in a configuration whose timings
 * mean nothing (a Debug build, or assertions compiled in). */
bool isDebugBuild();

/** Shortest round-trip decimal rendering of @p v for JSON output. */
std::string jsonNumber(double v);

}  // namespace flexbench

#endif  // FLEXBENCH_METRICS_H_
