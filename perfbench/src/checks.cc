#include "checks.h"

#include <fstream>
#include <sstream>

#include "common/stats.h"
#include "sim/sim_response.h"
#include "sim/system.h"

namespace flexbench {

std::string
Digest::describe() const
{
    return "cycles=" + std::to_string(cycles) +
           " instructions=" + std::to_string(instructions) +
           " forwarded=" + std::to_string(forwarded) +
           " stats_hash=" + std::to_string(stats_hash);
}

u64
sumOverCores(const flexcore::StatGroup &stats, const std::string &path,
             u32 cores)
{
    u64 sum = stats.tryLookup(path).value_or(0);
    for (u32 i = 1; i < cores; ++i) {
        sum += stats.tryLookup("c" + std::to_string(i) + "." + path)
                   .value_or(0);
    }
    return sum;
}

Digest
digestOf(flexcore::System &system, const flexcore::RunResult &result,
         const std::string &stats_json)
{
    Digest d;
    d.cycles = result.cycles;
    d.instructions = result.instructions;
    d.forwarded = sumOverCores(system.stats(), "interface.forwarded",
                               system.numCores());
    d.stats_hash = flexcore::fnv1a64(stats_json);
    return d;
}

bool
DigestTable::load(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot open digest table " + path;
        return false;
    }
    int lineno = 0;
    for (std::string line; std::getline(in, line);) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key;
        Digest d;
        if (!(fields >> key >> d.cycles >> d.instructions >> d.forwarded >>
              d.stats_hash)) {
            *error = path + ":" + std::to_string(lineno) +
                     ": expected 'key cycles instructions forwarded "
                     "stats_hash'";
            return false;
        }
        rows_[key] = d;
    }
    return true;
}

void
DigestTable::set(const std::string &key, const Digest &digest)
{
    rows_[key] = digest;
}

std::string
DigestTable::check(const std::string &key, const Digest &actual) const
{
    const auto it = rows_.find(key);
    if (it == rows_.end())
        return "no expected digest recorded";
    if (it->second == actual)
        return {};
    return "digest mismatch: expected " + it->second.describe() +
           ", got " + actual.describe();
}

std::string
DigestTable::render() const
{
    std::string out =
        "# Expected simulated digests, one row per (scale, kernel, "
        "config).\n# key cycles instructions forwarded stats_hash\n";
    for (const auto &[key, d] : rows_) {
        out += key + " " + std::to_string(d.cycles) + " " +
               std::to_string(d.instructions) + " " +
               std::to_string(d.forwarded) + " " +
               std::to_string(d.stats_hash) + "\n";
    }
    return out;
}

std::string
checkConsole(const flexcore::RunResult &result,
             const std::string &expected_console)
{
    if (result.exit != flexcore::RunResult::Exit::kExited) {
        return "did not exit cleanly: " +
               std::string(flexcore::exitName(result.exit)) + " (" +
               result.trap_reason + ")";
    }
    if (result.console == expected_console)
        return {};
    size_t at = 0;
    while (at < result.console.size() && at < expected_console.size() &&
           result.console[at] == expected_console[at])
        ++at;
    return "console differs from the golden output at byte " +
           std::to_string(at) + " (expected " +
           std::to_string(expected_console.size()) + " bytes, got " +
           std::to_string(result.console.size()) + ")";
}

}  // namespace flexbench
