/**
 * @file
 * Correctness gates of the benchmark. Every simulated result is
 * checked here instead of through SimRequest::verify(), whose failure
 * is a fatal abort: a wrong result must count as a failed operation
 * and make the command exit non-zero, not kill the process before it
 * reports.
 *
 * A row's digest is what the simulated machine did: cycles, committed
 * instructions, forwarded packets and a hash of the whole stats tree.
 * The expected digests live in perfbench/digests.tsv, recorded from
 * the simulator this benchmark was defined on (run.py
 * --record-digests), one line per (scale, kernel, configuration).
 */

#ifndef FLEXBENCH_CHECKS_H_
#define FLEXBENCH_CHECKS_H_

#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace flexcore {
class StatGroup;
class System;
struct RunResult;
}  // namespace flexcore

namespace flexbench {

using flexcore::u32;
using flexcore::u64;

struct Digest
{
    u64 cycles = 0;
    u64 instructions = 0;
    u64 forwarded = 0;
    u64 stats_hash = 0;   //!< FNV-1a 64 of the canonical stats JSON

    bool operator==(const Digest &) const = default;
    std::string describe() const;
};

/**
 * Sum of counter @p path over every core of @p stats: core 0's flat
 * name plus each extra core's "cI." copy. Shared components (the bus)
 * exist once and are counted once.
 */
u64 sumOverCores(const flexcore::StatGroup &stats, const std::string &path,
                 u32 cores);

/** Digest of a finished run; @p stats_json is the system's stats
 * tree rendered by StatGroup::json(). */
Digest digestOf(flexcore::System &system,
                const flexcore::RunResult &result,
                const std::string &stats_json);

/** Expected digests keyed by row ("full/sha/dift/interp/1"). */
class DigestTable
{
  public:
    /** Parse a table file; false with @p error set on a bad file. */
    bool load(const std::string &path, std::string *error);

    void set(const std::string &key, const Digest &digest);

    /** Empty when @p actual matches the recorded digest, else why not
     * (a missing entry is a mismatch too). */
    std::string check(const std::string &key, const Digest &actual) const;

    /** Render in the file format load() reads. */
    std::string render() const;

  private:
    std::map<std::string, Digest> rows_;
};

/**
 * Empty when a run exited cleanly and printed @p expected_console;
 * otherwise a short description of the first difference.
 */
std::string checkConsole(const flexcore::RunResult &result,
                         const std::string &expected_console);

}  // namespace flexbench

#endif  // FLEXBENCH_CHECKS_H_
