/**
 * @file
 * The FlexCore benchmark: four workloads driven through the
 * simulator's public API, each checked for correctness, reporting
 * end-to-end metrics from an untraced run and per-layer metrics from a
 * traced one. perfbench/README.md explains every workload and metric.
 */

#ifndef FLEXBENCH_BENCH_H_
#define FLEXBENCH_BENCH_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "checks.h"
#include "sim/system.h"
#include "spans.h"
#include "workloads/workload.h"

namespace flexbench {

enum class WorkloadId : uint8_t {
    kSuiteInterp,    //!< six kernels x five extensions, interpreter
    kSuiteFast,      //!< threaded dispatch + sampled timing
    kMulticoreDift,  //!< DIFT on four cores, both fabric topologies
    kServeMix,       //!< closed-loop clients against serve::Server
};

bool parseWorkloadId(std::string_view name, WorkloadId *out);
std::string_view workloadIdName(WorkloadId id);

struct Options
{
    WorkloadId workload = WorkloadId::kSuiteInterp;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string digests_path = "perfbench/digests.tsv";
    /** Scratch directory for the serve socket and the span dump. */
    std::string work_dir = ".bench_build/run";
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct Report
{
    u64 attempted = 0;
    u64 failed = 0;
    /** The first few failure descriptions (all are counted). */
    std::vector<std::string> failures;
    /** What the result line carries: end-to-end metrics untraced,
     * per-layer metrics traced. */
    std::vector<Metric> metrics;

    /** Count one checked operation; @p why empty means it passed. */
    void note(const std::string &why);
};

/** Run one workload as @p options says, printing human-readable lines
 * to stdout. */
Report runBenchmark(const Options &options);

/** Simulate every row of every workload once and write the digest
 * table to @p path. */
bool recordDigests(const std::string &path, std::string *error);

// ---- Building blocks, exposed for the benchmark's tests ----

/** One kernel, generated and assembled once per setup. */
struct Kernel
{
    std::string name;
    flexcore::Workload workload;
    std::shared_ptr<const flexcore::Program> program;
};

/** Generate and assemble @p name at @p scale under spans
 * "workloads.generate" and "assembler.assemble". */
Kernel makeKernel(const std::string &name, flexcore::WorkloadScale scale,
                  Tracer &tracer);

/** One (kernel, configuration) simulation of a batch workload. */
struct Row
{
    std::string key;       //!< digest-table key
    size_t kernel = 0;     //!< index into the workload's kernels
    flexcore::SystemConfig config;
    bool sampled = false;  //!< sampled timing: console check only
};

/** What one simulation did and whether it was right. */
struct RowOutcome
{
    std::string failure;   //!< empty = passed every check
    flexcore::RunResult result;
    Digest digest;
    std::string stats_json;
    /** Simulated per-layer counts (only when requested). */
    std::map<std::string, u64> counts;
    u64 core_cycles = 0;   //!< core.cycles summed over cores
};

/**
 * Build, load and run @p row on @p kernel under spans "sim.build",
 * "sim.run", "common.stats_json" and "bench.check", then check the
 * console and the digest against @p table.
 */
RowOutcome runRow(const Row &row, const Kernel &kernel,
                  const DigestTable &table, Tracer &tracer,
                  bool want_counts);

/** Kernels and rows of a batch workload (not serve-mix). */
std::vector<std::string> kernelNames(WorkloadId id);
std::vector<Row> rowsFor(WorkloadId id);

/** One serve-mix request as drawn from the seed. */
struct RequestSpec
{
    u32 kernel = 0;       //!< index into the six suite kernels
    u32 ext = 0;          //!< none, umc, dift, bc
    u32 exec = 0;         //!< interp, threaded
    bool stats_json = false;
    bool raw_source = false;  //!< unique source text: a cache miss
    u64 tag = 0;          //!< makes a raw source unique

    bool operator==(const RequestSpec &) const = default;
};

/** The first @p n requests client @p client sends under @p seed. */
std::vector<RequestSpec> serveMixSequence(u64 seed, u32 client, size_t n);

/** Names of the per-layer simulated counts and the stats path each is
 * summed from. */
const std::vector<std::pair<std::string, std::string>> &countPaths();

}  // namespace flexbench

#endif  // FLEXBENCH_BENCH_H_
