#include "bench.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <thread>
#include <utility>

#include <unistd.h>

#include "assembler/assembler.h"
#include "common/json.h"
#include "common/netio.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "metrics.h"
#include "serve/server.h"
#include "sim/sim_request.h"
#include "sim/sim_response.h"

namespace flexbench {

using flexcore::ExecMode;
using flexcore::FabricSharing;
using flexcore::ImplMode;
using flexcore::Program;
using flexcore::Rng;
using flexcore::RunResult;
using flexcore::SimRequest;
using flexcore::SimResponse;
using flexcore::System;
using flexcore::SystemConfig;
using flexcore::WorkloadScale;

namespace {

// The six kernels of the paper's evaluation, in Table IV order.
const std::vector<std::string> kSuiteKernels = {
    "sha", "gmac", "stringsearch", "fft", "basicmath", "bitcount"};
// multicore-dift runs three kernels of different character (hashing,
// floating-point-style arithmetic, table math) instead of six so that
// a run finishes a dozen passes of its 4-core rows, each 90-200 ms.
const std::vector<std::string> kMulticoreKernels = {"sha", "fft",
                                                    "basicmath"};
const std::vector<std::string> kSuiteExts = {"baseline", "umc", "dift",
                                             "bc", "sec"};
const std::vector<std::string> kFastExts = {"baseline", "umc", "dift",
                                            "bc"};

// Sampled timing as flexcore-perf runs it: 10% of each unit detailed.
constexpr u64 kSampleWindow = 2'000;
constexpr u64 kSamplePeriod = 20'000;
constexpr u32 kMulticoreCores = 4;
// Single-core DIFT reference runs per kernel in the traced
// multicore-dift run (for sim.multicore_scaling).
constexpr int kReferenceRepeats = 5;

// Set-up repetitions at the start of a traced run (for the per-layer
// medians) and, on serve-mix, before and after the timed phase.
constexpr int kSetupRepeats = 5;

// serve-mix: the callers of flexcore-serve are sweep scripts and
// flexcore-loadgen, each waiting for its reply (a closed loop).
constexpr u32 kServeClients = 4;
constexpr unsigned kServeWorkers = 2;
constexpr double kStatsJsonShare = 0.25;
constexpr double kRawSourceShare = 0.10;
// Every raw-source request adds a program to the server's unbounded
// cache, so serve-mix memory grows with requests served; its
// peak_rss_mb is read after this many requests, not at the end, so a
// faster server is not charged for serving more.
constexpr u64 kRssRequests = 5000;
const std::vector<std::string> kServeExts = {"baseline", "umc", "dift",
                                             "bc"};
const ExecMode kServeExecs[] = {ExecMode::kInterp, ExecMode::kThreaded};
// Stream id of the in-process decomposition's request sequence.
constexpr u32 kDecomposeStream = 1000;

// The paper's Table IV normalized execution time at each extension's
// default fabric clock (UMC/DIFT/BC 0.5X, SEC 0.25X).
const std::vector<std::pair<std::string, double>> kPaperTable4 = {
    {"umc", 1.02}, {"dift", 1.18}, {"bc", 1.17}, {"sec", 1.40}};

constexpr size_t kMaxFailuresKept = 20;
constexpr double kMinCoveragePct = 90;

u64
splitmix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

Rng
streamRng(u64 seed, u64 stream)
{
    return Rng(splitmix64(seed * 0x100000001b3ull + stream) | 1);
}

SystemConfig
extConfig(const std::string &ext, ExecMode exec)
{
    SystemConfig config;
    if (ext != "baseline") {
        flexcore::parseMonitorKind(ext, &config.monitor);
        config.mode = ImplMode::kFlexFabric;
    }
    config.exec_mode = exec;
    return config;
}

std::string
rowKey(std::string_view scale, const std::string &kernel,
       const std::string &ext, std::string_view variant)
{
    return std::string(scale) + "/" + kernel + "/" + ext + "/" +
           std::string(variant);
}

std::string
variantName(ExecMode exec, u32 cores, FabricSharing sharing)
{
    std::string v(flexcore::execModeName(exec));
    v += "/" + std::to_string(cores);
    if (cores > 1)
        v += "-" + std::string(flexcore::fabricSharingName(sharing));
    return v;
}

Row
makeRow(std::string_view scale, const std::vector<std::string> &kernels,
        size_t k, const std::string &ext, SystemConfig config,
        std::string_view variant, bool sampled = false)
{
    Row row;
    row.key = rowKey(scale, kernels[k], ext, variant);
    row.kernel = k;
    row.config = std::move(config);
    row.sampled = sampled;
    return row;
}

std::vector<Kernel>
makeKernels(const std::vector<std::string> &names, WorkloadScale scale,
            Tracer &tracer)
{
    std::vector<Kernel> kernels;
    for (const std::string &name : names)
        kernels.push_back(makeKernel(name, scale, tracer));
    return kernels;
}

// ---------------------------------------------------------------------
// Batch workloads
// ---------------------------------------------------------------------

struct BatchSetup
{
    std::vector<Kernel> kernels;
    std::vector<Row> rows;
};

struct OpSample
{
    size_t row = 0;
    double latency_s = 0;
};

/** One timed phase of a batch workload: whole passes over the rows. */
struct BatchPhase
{
    double begin_us = 0;
    double end_us = 0;
    std::vector<OpSample> ops;
    std::vector<double> pass_mips;   //!< for the log
};

template <typename T>
void
shuffle(std::vector<T> *v, Rng *rng)
{
    for (size_t i = v->size(); i > 1; --i)
        std::swap((*v)[i - 1], (*v)[rng->below(static_cast<u32>(i))]);
}

/**
 * Run whole passes over @p setup's rows in a seeded order until
 * starting another pass would overrun @p seconds (at least one pass),
 * calling @p after_pass (if set) after each. The first outcome of each
 * row is kept in @p first.
 */
BatchPhase
runPasses(const BatchSetup &setup, const DigestTable &table,
          double seconds, Rng *rng, Tracer &tracer, Report *report,
          std::map<std::string, RowOutcome> *first,
          const std::function<void()> &after_pass = {})
{
    BatchPhase phase;
    phase.begin_us = tracer.nowUs();
    const Clock::time_point t0 = Clock::now();
    std::vector<size_t> order(setup.rows.size());
    std::iota(order.begin(), order.end(), 0);
    double elapsed = 0;
    do {
        shuffle(&order, rng);
        const Clock::time_point p0 = Clock::now();
        u64 pass_instructions = 0;
        for (const size_t index : order) {
            const Row &row = setup.rows[index];
            const bool fresh = first->find(row.key) == first->end();
            const Clock::time_point o0 = Clock::now();
            RowOutcome out = runRow(row, setup.kernels[row.kernel], table,
                                    tracer, fresh);
            phase.ops.push_back({index, secondsSince(o0)});
            report->note(out.failure);
            pass_instructions += out.result.instructions;
            if (fresh)
                first->emplace(row.key, std::move(out));
        }
        const double pass_s = secondsSince(p0);
        phase.pass_mips.push_back(
            static_cast<double>(pass_instructions) / pass_s / 1e6);
        if (after_pass)
            after_pass();
        elapsed = secondsSince(t0);
    } while (elapsed + elapsed / static_cast<double>(
                                    phase.pass_mips.size()) <=
             seconds);
    phase.end_us = tracer.nowUs();
    return phase;
}

/** End-to-end figures of a batch phase. */
struct BatchFigures
{
    double mips = 0;
    double ops_per_s = 0;
    double p50_ms = 0;
};

/**
 * Figures at each row's fastest latency in the phase. A neighbour's
 * load on a shared host slows every thread for seconds at a time and
 * only ever slows it, so a row's fastest run among the dozen or more
 * a phase makes is the cost of its own work. One pass at those
 * latencies gives the throughput, and their median the p50.
 */
BatchFigures
fastestPerRow(const BatchPhase &phase, const BatchSetup &setup,
              const std::map<std::string, RowOutcome> &first)
{
    std::vector<double> fastest(setup.rows.size(), 0);
    for (const OpSample &op : phase.ops) {
        double &f = fastest[op.row];
        f = f == 0 ? op.latency_s : std::min(f, op.latency_s);
    }
    BatchFigures fig;
    double seconds = 0;
    double instructions = 0;
    std::vector<double> latency_ms;
    for (size_t r = 0; r < setup.rows.size(); ++r) {
        const auto out = first.find(setup.rows[r].key);
        if (fastest[r] == 0 || out == first.end())
            continue;
        seconds += fastest[r];
        instructions += static_cast<double>(out->second.result.instructions);
        latency_ms.push_back(fastest[r] * 1e3);
    }
    if (seconds > 0) {
        fig.mips = instructions / seconds / 1e6;
        fig.ops_per_s = static_cast<double>(latency_ms.size()) / seconds;
    }
    fig.p50_ms = median(std::move(latency_ms));
    return fig;
}

// ---------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------

size_t
refIndex(const RequestSpec &spec)
{
    return (spec.kernel * kServeExts.size() + spec.ext) * 2 + spec.exec;
}

RequestSpec
drawRequest(Rng *rng, u64 tag)
{
    RequestSpec spec;
    spec.kernel = rng->below(static_cast<u32>(kSuiteKernels.size()));
    spec.ext = rng->below(static_cast<u32>(kServeExts.size()));
    spec.exec = rng->below(2);
    spec.stats_json = rng->chance(kStatsJsonShare);
    spec.raw_source = rng->chance(kRawSourceShare);
    spec.tag = tag;
    return spec;
}

/** The request stream of one client in one phase. */
class RequestStream
{
  public:
    RequestStream(u64 seed, u32 stream, u32 phase)
        : rng_(streamRng(seed, stream)),
          tag_base_((static_cast<u64>(phase) << 48) |
                    (static_cast<u64>(stream) << 32))
    {
    }

    RequestSpec next() { return drawRequest(&rng_, tag_base_ | seq_++); }

  private:
    Rng rng_;
    u64 tag_base_;
    u64 seq_ = 0;
};

std::string
simEnvelope(const std::string &request_json)
{
    return "{\"op\": \"sim\", \"request\": " + request_json + "}";
}

/** The 48 test-scale configurations a serve-mix request can name,
 * in refIndex() order. */
std::vector<Row>
serveRows()
{
    std::vector<Row> rows;
    for (size_t k = 0; k < kSuiteKernels.size(); ++k) {
        for (const std::string &ext : kServeExts) {
            for (const ExecMode exec : kServeExecs) {
                rows.push_back(makeRow("test", kSuiteKernels, k, ext,
                                       extConfig(ext, exec),
                                       variantName(exec, 1, {})));
            }
        }
    }
    return rows;
}

/** The local reference run of one serve-mix configuration. */
struct ServeRef
{
    Row row;
    RowOutcome outcome;
    std::string expected_console;
    std::string named_envelope[2];   //!< stats_json off / on
};

struct ServeSetup
{
    std::vector<Kernel> kernels;
    std::vector<ServeRef> refs;   //!< indexed by refIndex()
    u64 seed = 0;
    flexcore::netio::Endpoint endpoint;
    std::string socket_path;
    flexcore::ProgramCache cache;
    std::unique_ptr<flexcore::ThreadPool> pool;
    std::unique_ptr<flexcore::serve::Server> server;
    std::thread serve_thread;

    ServeSetup() = default;
    ServeSetup(const ServeSetup &) = delete;
    ServeSetup &operator=(const ServeSetup &) = delete;
    ~ServeSetup() { stop(); }

    /** Drain the server, join its thread, remove the socket. */
    void
    stop()
    {
        if (server)
            server->beginShutdown();
        if (serve_thread.joinable())
            serve_thread.join();
        server.reset();
        pool.reset();
        if (!socket_path.empty())
            std::filesystem::remove(socket_path);
        socket_path.clear();
    }

    std::string
    envelope(const RequestSpec &spec) const
    {
        const ServeRef &ref = refs[refIndex(spec)];
        if (!spec.raw_source)
            return ref.named_envelope[spec.stats_json ? 1 : 0];
        // A comment makes the text, and so the cache key, unique
        // without changing the assembled program.
        std::string source = kernels[spec.kernel].workload.source;
        source += "\n! flexbench seed " + std::to_string(seed) +
                  " request " + std::to_string(spec.tag) + "\n";
        return simEnvelope(SimRequest(ref.row.config)
                               .source(std::move(source))
                               .statsJson(spec.stats_json)
                               .toJson());
    }
};

std::string
kindLabel(const RequestSpec &spec)
{
    return spec.raw_source ? "raw" : "named";
}

/** Empty when a served response equals the local run of its request. */
std::string
checkServed(const std::string &payload, const RequestSpec &spec,
            const ServeRef &ref)
{
    SimResponse response;
    std::string error;
    if (!flexcore::simResponseFromJson(payload, &response, &error))
        return ref.row.key + ": undecodable response: " + error;
    if (response.error) {
        return ref.row.key + ": typed error " +
               std::string(flexcore::configErrorName(
                   response.error.code)) +
               ": " + response.error.message;
    }
    std::string why = checkConsole(response.result, ref.expected_console);
    if (!why.empty())
        return ref.row.key + ": " + why;
    if (response.result.cycles != ref.outcome.result.cycles ||
        response.result.instructions != ref.outcome.result.instructions) {
        return ref.row.key + ": served cycles/instructions differ from "
                             "the local run";
    }
    if (spec.stats_json && response.stats_json != ref.outcome.stats_json)
        return ref.row.key + ": served stats differ from the local run";
    return {};
}

std::unique_ptr<ServeSetup>
setupServe(const Options &options, const DigestTable &table,
           Tracer &tracer, Report *report)
{
    auto setup = std::make_unique<ServeSetup>();
    setup->seed = options.seed;
    setup->kernels =
        makeKernels(kSuiteKernels, WorkloadScale::kTest, tracer);
    for (Row &row : serveRows()) {
        const Kernel &kernel = setup->kernels[row.kernel];
        ServeRef ref;
        ref.outcome = runRow(row, kernel, table, tracer, true);
        report->note(ref.outcome.failure);
        ref.expected_console = kernel.workload.expected_console;
        for (int s = 0; s < 2; ++s) {
            ref.named_envelope[s] = simEnvelope(
                SimRequest(row.config)
                    .workloadByName(kernel.name, WorkloadScale::kTest)
                    .verify(false)
                    .statsJson(s == 1)
                    .toJson());
        }
        ref.row = std::move(row);
        setup->refs.push_back(std::move(ref));
    }

    std::filesystem::create_directories(options.work_dir);
    setup->socket_path = options.work_dir + "/serve-" +
                         std::to_string(getpid()) + ".sock";
    std::string error;
    if (!flexcore::netio::parseEndpoint("unix:" + setup->socket_path,
                                        &setup->endpoint, &error)) {
        report->note("serve endpoint: " + error);
        return setup;
    }
    flexcore::serve::ServeLimits limits;
    limits.quiet = true;
    setup->pool = std::make_unique<flexcore::ThreadPool>(kServeWorkers);
    setup->server = std::make_unique<flexcore::serve::Server>(
        setup->pool.get(), &setup->cache, limits);
    if (!setup->server->listen(setup->endpoint, &error)) {
        report->note("serve listen: " + error);
        setup->server.reset();
        return setup;
    }
    flexcore::serve::Server *server = setup->server.get();
    setup->serve_thread = std::thread([server] { server->serve(); });
    return setup;
}

struct ClientLog
{
    std::vector<double> latency_s;
    std::vector<u64> instructions;   //!< per completed request
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> failures;

    void
    note(const std::string &why)
    {
        ++attempted;
        if (why.empty())
            return;
        ++failed;
        if (failures.size() < kMaxFailuresKept)
            failures.push_back(why);
    }
};

void
serveClient(const ServeSetup *setup, u64 seed, u32 client, u32 phase,
            Clock::time_point t0, double seconds, Tracer *tracer,
            std::atomic<u64> *completed, double *rss_mb, ClientLog *log)
{
    std::string error;
    const int fd = flexcore::netio::connectTo(setup->endpoint, &error);
    if (fd < 0) {
        log->note("connect: " + error);
        return;
    }
    RequestStream stream(seed, client, phase);
    while (secondsSince(t0) < seconds) {
        const RequestSpec spec = stream.next();
        const ServeRef &ref = setup->refs[refIndex(spec)];
        const std::string envelope = setup->envelope(spec);
        std::string payload;
        bool io_ok = false;
        const Clock::time_point q0 = Clock::now();
        {
            Tracer::Scope span(*tracer, "serve.request", kindLabel(spec),
                               tracer->enabled() ? tracer->newRun() : 0);
            io_ok = flexcore::netio::sendFrame(fd, envelope) &&
                    flexcore::netio::recvFrame(fd, &payload, &error);
        }
        const double latency = secondsSince(q0);
        if (!io_ok) {
            log->note("request i/o: " +
                      (error.empty() ? std::string("server hung up")
                                     : error));
            break;
        }
        const std::string why = checkServed(payload, spec, ref);
        log->note(why);
        if (why.empty()) {
            if (completed->fetch_add(1) + 1 == kRssRequests)
                *rss_mb = peakRssMb();
            log->latency_s.push_back(latency);
            log->instructions.push_back(ref.outcome.result.instructions);
        }
    }
    flexcore::netio::closeSocket(fd);
}

struct ServePhase
{
    double begin_us = 0;
    double end_us = 0;
    std::vector<double> latency_ms;   //!< every completed request
    double rps = 0;
    double mips = 0;
    double rss_mb = 0;   //!< peak RSS after kRssRequests requests
};

/** @p kServeClients closed-loop clients for @p seconds. */
ServePhase
runServePhase(const ServeSetup &setup, u64 seed, u32 phase_id,
              double seconds, Tracer &tracer, Report *report)
{
    ServePhase phase;
    phase.begin_us = tracer.nowUs();
    std::vector<ClientLog> logs(kServeClients);
    std::vector<std::thread> clients;
    std::atomic<u64> completed{0};
    const Clock::time_point t0 = Clock::now();
    for (u32 c = 0; c < kServeClients; ++c) {
        clients.emplace_back(serveClient, &setup, seed, c, phase_id, t0,
                             seconds, &tracer, &completed, &phase.rss_mb,
                             &logs[c]);
    }
    for (std::thread &t : clients)
        t.join();
    const double wall_s = secondsSince(t0);
    phase.end_us = tracer.nowUs();
    if (phase.rss_mb == 0)
        phase.rss_mb = peakRssMb();

    double instructions = 0;
    for (const ClientLog &log : logs) {
        report->attempted += log.attempted;
        report->failed += log.failed;
        for (const std::string &why : log.failures) {
            if (report->failures.size() < kMaxFailuresKept)
                report->failures.push_back(why);
        }
        for (const double s : log.latency_s)
            phase.latency_ms.push_back(s * 1e3);
        for (const u64 n : log.instructions)
            instructions += static_cast<double>(n);
    }
    phase.rps = static_cast<double>(phase.latency_ms.size()) / wall_s;
    phase.mips = instructions / wall_s / 1e6;
    return phase;
}

/**
 * The traced run's view inside one request: the serve path's steps
 * called one by one in-process (decode, hash, cache or assemble,
 * simulate, stats rendering, response rendering), then the same
 * payload through Server::handlePayload. Both results are checked
 * against the local run.
 */
void
runDecomposed(ServeSetup &setup, u64 seed, double seconds, Tracer &tracer,
              Report *report)
{
    flexcore::ProgramCache cache;
    RequestStream stream(seed, kDecomposeStream, 0);
    const Clock::time_point t0 = Clock::now();
    while (secondsSince(t0) < seconds) {
        const RequestSpec spec = stream.next();
        const ServeRef &ref = setup.refs[refIndex(spec)];
        const std::string envelope = setup.envelope(spec);
        const std::string label = kindLabel(spec);
        const uint64_t run = tracer.newRun();

        SimRequest sim;
        bool decoded = false;
        {
            Tracer::Scope span(tracer, "serve.decode", label, run);
            flexcore::JsonValue doc;
            std::string parse_error;
            flexcore::ConfigError decode_error;
            const flexcore::JsonValue *request_doc =
                flexcore::parseJson(envelope, &doc, &parse_error)
                    ? doc.find("request")
                    : nullptr;
            decoded = request_doc &&
                      SimRequest::fromJson(*request_doc, &sim,
                                           &decode_error);
        }
        if (!decoded || !sim.sourceText()) {
            report->note(ref.row.key + ": in-process decode failed");
            continue;
        }
        u64 hash = 0;
        {
            Tracer::Scope span(tracer, "serve.hash", label, run);
            hash = flexcore::fnv1a64(*sim.sourceText());
        }
        std::shared_ptr<const Program> program;
        bool hit = false;
        {
            Tracer::Scope span(tracer, "serve.cache", label, run);
            program = cache.lookup(hash);
            hit = program != nullptr;
            if (!hit) {
                Tracer::Scope assemble(tracer, "assembler.assemble",
                                       kSuiteKernels[spec.kernel]);
                Program assembled;
                flexcore::Assembler assembler;
                if (assembler.assemble(*sim.sourceText(), &assembled)) {
                    program = std::make_shared<const Program>(
                        std::move(assembled));
                    cache.insert(hash, program);
                }
            }
        }
        if (!program) {
            report->note(ref.row.key + ": in-process assembly failed");
            continue;
        }
        SimResponse response;
        response.cache_hit = hit;
        response.source_hash = hash;
        std::unique_ptr<System> system;
        {
            Tracer::Scope span(tracer, "serve.simulate", label, run);
            {
                Tracer::Scope build(tracer, "sim.build", ref.row.key);
                system = std::make_unique<System>(sim.config());
                system->load(*program);
            }
            Tracer::Scope run(tracer, "sim.run", ref.row.key);
            response.result = system->run();
        }
        if (sim.statsJsonRequested()) {
            Tracer::Scope span(tracer, "common.stats_json", label, run);
            response.stats_json = system->stats().json();
        }
        {
            Tracer::Scope span(tracer, "sim.teardown", label, run);
            system.reset();
        }
        std::string frame;
        {
            Tracer::Scope span(tracer, "serve.render", label, run);
            frame = flexcore::simResponseJson(response);
        }
        {
            Tracer::Scope span(tracer, "bench.check", label, run);
            report->note(checkServed(frame, spec, ref));
        }
        flexcore::serve::Server::Reply reply;
        {
            Tracer::Scope span(tracer, "serve.handle", label, run);
            reply = setup.server->handlePayload(envelope);
        }
        Tracer::Scope span(tracer, "bench.check", label, run);
        report->note(checkServed(reply.frame, spec, ref));
    }
}

// ---------------------------------------------------------------------
// Span summaries for the per-layer metrics
// ---------------------------------------------------------------------

/** Durations (µs) of spans named @p name that started inside
 * [begin_us, end_us]. */
std::vector<double>
durations(const std::vector<Span> &spans, const std::string &name,
          double begin_us, double end_us)
{
    std::vector<double> out;
    for (const Span &s : spans) {
        if (s.name == name && s.start_us >= begin_us &&
            s.start_us <= end_us)
            out.push_back(s.durationUs());
    }
    return out;
}

/** Fastest sim.run time (µs) of each row label inside a window, for
 * the reason fastestPerRow gives. */
std::map<std::string, double>
fastestRunUs(const std::vector<Span> &spans, double begin_us,
             double end_us)
{
    std::map<std::string, double> out;
    for (const Span &s : spans) {
        if (s.name != "sim.run" || s.start_us < begin_us ||
            s.start_us > end_us)
            continue;
        const auto [it, fresh] = out.emplace(s.label, s.durationUs());
        if (!fresh)
            it->second = std::min(it->second, s.durationUs());
    }
    return out;
}

/** Sum over runs (setups) of a span's durations, median over runs. */
double
medianPerRunTotalUs(const std::vector<Span> &spans, const std::string &name)
{
    std::map<uint64_t, double> per_run;
    for (const Span &s : spans) {
        if (s.name == name)
            per_run[s.run] += s.durationUs();
    }
    std::vector<double> totals;
    for (const auto &[run, total] : per_run)
        totals.push_back(total);
    return median(std::move(totals));
}

/** Assembly cost, µs per KiB of source, over every assemble span. */
double
assembleUsPerKb(const std::vector<Span> &spans,
                const std::vector<Kernel> &kernels)
{
    double us = 0;
    double kb = 0;
    for (const Span &s : spans) {
        if (s.name != "assembler.assemble")
            continue;
        for (const Kernel &k : kernels) {
            if (k.name == s.label) {
                us += s.durationUs();
                kb += static_cast<double>(k.workload.source.size()) /
                      1024.0;
            }
        }
    }
    return kb > 0 ? us / kb : 0;
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

class MetricSet
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        for (Metric &m : metrics_) {
            if (m.name == name) {
                m.value = value;
                return;
            }
        }
        metrics_.push_back({name, value, unit});
    }

    std::vector<Metric> take() { return std::move(metrics_); }

  private:
    std::vector<Metric> metrics_;
};

/** Every per-layer metric at zero: a layer a workload does not
 * exercise spends no time and does no work there. */
void
zeroPerLayer(MetricSet *m)
{
    const std::pair<const char *, const char *> host[] = {
        {"workloads.generate_ms", "ms"},
        {"assembler.assemble_us_per_kb", "us/KB"},
        {"sim.build_us", "us"},
        {"core.interp_ns_per_inst", "ns/inst"},
        {"core.threaded_ns_per_inst", "ns/inst"},
        {"core.sampled_ns_per_inst", "ns/inst"},
        {"core.sample_err_pct", "%"},
        {"flexcore.ns_per_packet.umc", "ns/packet"},
        {"flexcore.ns_per_packet.dift", "ns/packet"},
        {"flexcore.ns_per_packet.bc", "ns/packet"},
        {"flexcore.ns_per_packet.sec", "ns/packet"},
        {"flexcore.ns_per_packet.dift-threaded", "ns/packet"},
        {"flexcore.norm_time.umc", "x"},
        {"flexcore.norm_time.dift", "x"},
        {"flexcore.norm_time.bc", "x"},
        {"flexcore.norm_time.sec", "x"},
        {"sim.multicore_ns_per_core_cycle.shared", "ns/cycle"},
        {"sim.multicore_ns_per_core_cycle.per_core", "ns/cycle"},
        {"sim.multicore_scaling.shared", "x"},
        {"sim.multicore_scaling.per_core", "x"},
        {"serve.decode_us", "us"},
        {"serve.hash_us", "us"},
        {"serve.simulate_us", "us"},
        {"common.stats_json_us", "us"},
        {"serve.render_us", "us"},
        {"serve.handle_us", "us"},
        {"serve.transport_us", "us"},
        {"serve.req_p99_ms", "ms"},
        {"serve.cache_hit_ratio", "ratio"},
        {"serve.sims", "count"},
        {"serve.errors", "count"},
        {"serve.shed", "count"},
        {"trace.coverage_pct", "%"},
        {"trace.overhead_pct", "%"},
    };
    for (const auto &[name, unit] : host)
        m->set(name, 0, unit);
    for (const auto &[name, path] : countPaths())
        m->set(name, 0, "count");
}

void
addCounts(MetricSet *m, const std::vector<const RowOutcome *> &outcomes)
{
    for (const auto &[name, path] : countPaths()) {
        u64 sum = 0;
        for (const RowOutcome *o : outcomes) {
            const auto it = o->counts.find(name);
            if (it != o->counts.end())
                sum += it->second;
        }
        m->set(name, static_cast<double>(sum), "count");
    }
}

void
printLine(const std::string &line)
{
    std::printf("%s\n", line.c_str());
}

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, format, v);
    return buf;
}

/** Geomean over kernels of cycles(ext) / cycles(baseline), interp. */
double
normalizedTime(const std::map<std::string, RowOutcome> &first,
               const std::vector<std::string> &kernels,
               const std::string &ext)
{
    double log_sum = 0;
    int n = 0;
    for (const std::string &k : kernels) {
        const auto mon = first.find(rowKey("full", k, ext, "interp/1"));
        const auto base =
            first.find(rowKey("full", k, "baseline", "interp/1"));
        if (mon == first.end() || base == first.end() ||
            base->second.result.cycles == 0)
            continue;
        log_sum += std::log(static_cast<double>(mon->second.result.cycles) /
                            static_cast<double>(base->second.result.cycles));
        ++n;
    }
    return n > 0 ? std::exp(log_sum / n) : 0;
}

/** Mean |sampled estimate - detailed cycles| / detailed, percent. */
double
sampleErrorPct(const std::map<std::string, RowOutcome> &first)
{
    double sum = 0;
    int n = 0;
    for (const std::string &k : kSuiteKernels) {
        const auto est = first.find(rowKey("full", k, "dift", "sampled/1"));
        const auto det =
            first.find(rowKey("full", k, "dift", "threaded/1"));
        if (est == first.end() || det == first.end() ||
            det->second.result.cycles == 0)
            continue;
        const double d = static_cast<double>(det->second.result.cycles);
        sum += std::fabs(static_cast<double>(est->second.result.cycles) -
                         d) /
               d * 100.0;
        ++n;
    }
    return n > 0 ? sum / n : 0;
}

/**
 * Host ns per forwarded packet of @p ext: the extra sim.run time over
 * the baseline row of the same kernel and exec mode, per packet.
 */
double
nsPerPacket(const std::map<std::string, double> &run_us,
            const std::map<std::string, RowOutcome> &first,
            const std::string &ext, const std::string &variant)
{
    double extra_us = 0;
    double packets = 0;
    for (const std::string &k : kSuiteKernels) {
        const std::string mon_key = rowKey("full", k, ext, variant);
        const std::string base_key = rowKey("full", k, "baseline", variant);
        const auto mon = run_us.find(mon_key);
        const auto base = run_us.find(base_key);
        const auto out = first.find(mon_key);
        if (mon == run_us.end() || base == run_us.end() ||
            out == first.end())
            continue;
        extra_us += mon->second - base->second;
        packets += static_cast<double>(out->second.digest.forwarded);
    }
    return packets > 0 ? extra_us * 1e3 / packets : 0;
}

/** Host ns per simulated instruction of every row of @p ext/@p variant. */
double
nsPerInstruction(const std::map<std::string, double> &run_us,
                 const std::map<std::string, RowOutcome> &first,
                 const std::string &ext, const std::string &variant)
{
    double us = 0;
    double instructions = 0;
    for (const std::string &k : kSuiteKernels) {
        const std::string key = rowKey("full", k, ext, variant);
        const auto run = run_us.find(key);
        const auto out = first.find(key);
        if (run == run_us.end() || out == first.end())
            continue;
        us += run->second;
        instructions += static_cast<double>(out->second.result.instructions);
    }
    return instructions > 0 ? us * 1e3 / instructions : 0;
}

/** Host ns per simulated core-cycle over the rows of @p variant. */
double
nsPerCoreCycle(const std::map<std::string, double> &run_us,
               const std::map<std::string, RowOutcome> &outcomes,
               const std::string &variant)
{
    double us = 0;
    double cycles = 0;
    for (const std::string &k : kMulticoreKernels) {
        const std::string key = rowKey("full", k, "dift", variant);
        const auto run = run_us.find(key);
        const auto out = outcomes.find(key);
        if (run == run_us.end() || out == outcomes.end())
            continue;
        us += run->second;
        cycles += static_cast<double>(out->second.core_cycles);
    }
    return cycles > 0 ? us * 1e3 / cycles : 0;
}

void
printSetups(const std::vector<double> &setup_s)
{
    std::string line = "set-up ms:";
    for (const double s : setup_s)
        line += " " + fmt("%.2f", s * 1e3);
    printLine(line);
}

/** Top-level spans must account for nearly all of the traced wall
 * time; a traced run that cannot is a failed measurement. */
void
noteCoverage(double pct, Report *report, MetricSet *metrics)
{
    metrics->set("trace.coverage_pct", pct, "%");
    report->note(pct >= kMinCoveragePct
                     ? std::string()
                     : "trace: top-level spans cover " + fmt("%.1f", pct) +
                           "% of the timed wall time, under " +
                           fmt("%.0f", kMinCoveragePct) + "%");
}

void
writeSpans(const Options &options, const std::vector<Span> &spans)
{
    std::filesystem::create_directories(options.work_dir);
    const std::string path =
        options.work_dir + "/spans-" +
        std::string(workloadIdName(options.workload)) + "-seed" +
        std::to_string(options.seed) + ".tsv";
    std::ofstream out(path);
    const std::vector<double> self = selfTimesUs(spans);
    out << "# host " << hostFingerprintJson() << "\n"
        << "# id\tparent\trun\tname\tlabel\tstart_us\tend_us\tself_us\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << s.id << '\t' << s.parent << '\t' << s.run << '\t' << s.name
            << '\t' << s.label << '\t' << fmt("%.3f", s.start_us) << '\t'
            << fmt("%.3f", s.end_us) << '\t' << fmt("%.3f", self[i])
            << '\n';
    }
    printLine("spans: " + std::to_string(spans.size()) + " written to " +
              path);
}

/** Total self time per span name inside the traced phases, printed so
 * a reader sees where the host time went. */
void
printSelfTimes(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimesUs(spans);
    std::map<std::string, std::pair<double, size_t>> by_name;
    for (size_t i = 0; i < spans.size(); ++i) {
        by_name[spans[i].name].first += self[i];
        by_name[spans[i].name].second += 1;
    }
    for (const auto &[name, total] : by_name) {
        printLine("self " + name + ": " +
                  fmt("%.1f", total.first / 1e3) + " ms over " +
                  std::to_string(total.second) + " spans");
    }
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

BatchSetup
setupBatch(WorkloadId id, Tracer &tracer)
{
    BatchSetup setup;
    setup.kernels = makeKernels(kernelNames(id), WorkloadScale::kFull,
                                tracer);
    setup.rows = rowsFor(id);
    return setup;
}

void
runBatch(const Options &options, const DigestTable &table,
         Report *report, MetricSet *metrics)
{
    Tracer tracer(options.trace);
    Tracer untraced(false);
    std::vector<double> setup_s;
    auto timed_setup = [&] {
        const Clock::time_point t0 = Clock::now();
        BatchSetup fresh;
        {
            Tracer::Scope span(tracer, "bench.setup", "", tracer.newRun());
            fresh = setupBatch(options.workload, tracer);
        }
        setup_s.push_back(secondsSince(t0));
        return fresh;
    };
    const BatchSetup setup = timed_setup();
    for (int i = 1; options.trace && i < kSetupRepeats; ++i)
        timed_setup();
    Rng rng = streamRng(options.seed, 0);
    std::map<std::string, RowOutcome> first;

    if (!options.trace) {
        // Set-up repeats after every pass, so that setup_s, the median
        // repetition, samples the whole run rather than its start.
        const BatchPhase phase =
            runPasses(setup, table, options.seconds, &rng, untraced,
                      report, &first, [&] { timed_setup(); });
        const BatchFigures fig = fastestPerRow(phase, setup, first);
        printSetups(setup_s);
        std::vector<double> latency_ms;
        for (const OpSample &op : phase.ops)
            latency_ms.push_back(op.latency_s * 1e3);
        metrics->set("setup_s", median(setup_s), "s");
        metrics->set("sim_mips", fig.mips, "MIPS");
        metrics->set("serve_rps", fig.ops_per_s, "1/s");
        metrics->set("req_p50_ms", fig.p50_ms, "ms");
        metrics->set("peak_rss_mb", peakRssMb(), "MB");
        std::string passes;
        for (const double mips : phase.pass_mips)
            passes += " " + fmt("%.2f", mips);
        printLine("simulations: " + std::to_string(phase.ops.size()) +
                  "; sim_mips per pass:" + passes);
        printLine("simulation latency " +
                  percentile(latency_ms, 0.99).describe("ms"));
    } else {
        // Half the time untraced, half traced: the difference is the
        // tracing overhead.
        const BatchPhase plain = runPasses(setup, table, options.seconds / 2,
                                           &rng, untraced, report, &first);
        const BatchPhase traced = runPasses(setup, table, options.seconds / 2,
                                            &rng, tracer, report, &first);
        std::vector<Span> spans = tracer.spans();
        const std::map<std::string, double> run_us =
            fastestRunUs(spans, traced.begin_us, traced.end_us);

        std::map<std::string, RowOutcome> reference;
        double ref_begin = 0;
        double ref_end = 0;
        if (options.workload == WorkloadId::kMulticoreDift) {
            // Single-core DIFT on the same kernels: the base of
            // sim.multicore_scaling, outside the overhead comparison.
            ref_begin = tracer.nowUs();
            for (size_t k = 0; k < kMulticoreKernels.size(); ++k) {
                const Row row = makeRow(
                    "full", kMulticoreKernels, k, "dift",
                    extConfig("dift", ExecMode::kInterp), "interp/1");
                for (int r = 0; r < kReferenceRepeats; ++r) {
                    RowOutcome out = runRow(row, setup.kernels[k], table,
                                            tracer, false);
                    report->note(out.failure);
                    reference[row.key] = std::move(out);
                }
            }
            ref_end = tracer.nowUs();
            spans = tracer.spans();
        }

        const double covered =
            topLevelCoverage(spans, traced.begin_us, traced.end_us) *
                (traced.end_us - traced.begin_us) +
            topLevelCoverage(spans, ref_begin, ref_end) *
                (ref_end - ref_begin);
        const double window = (traced.end_us - traced.begin_us) +
                              (ref_end - ref_begin);

        metrics->set("workloads.generate_ms",
                     medianPerRunTotalUs(spans, "workloads.generate") /
                         1e3,
                     "ms");
        metrics->set("assembler.assemble_us_per_kb",
                     assembleUsPerKb(spans, setup.kernels), "us/KB");
        metrics->set("sim.build_us",
                     median(durations(spans, "sim.build", traced.begin_us,
                                      traced.end_us)),
                     "us");
        metrics->set("common.stats_json_us",
                     median(durations(spans, "common.stats_json",
                                      traced.begin_us, traced.end_us)),
                     "us");
        if (options.workload == WorkloadId::kSuiteInterp) {
            metrics->set("core.interp_ns_per_inst",
                         nsPerInstruction(run_us, first, "baseline",
                                          "interp/1"),
                         "ns/inst");
            for (const std::string ext : {"umc", "dift", "bc", "sec"}) {
                metrics->set("flexcore.ns_per_packet." + ext,
                             nsPerPacket(run_us, first, ext, "interp/1"),
                             "ns/packet");
                metrics->set("flexcore.norm_time." + ext,
                             normalizedTime(first, kSuiteKernels, ext),
                             "x");
            }
        }
        if (options.workload == WorkloadId::kSuiteFast) {
            metrics->set("core.threaded_ns_per_inst",
                         nsPerInstruction(run_us, first, "baseline",
                                          "threaded/1"),
                         "ns/inst");
            metrics->set("core.sampled_ns_per_inst",
                         nsPerInstruction(run_us, first, "dift",
                                          "sampled/1"),
                         "ns/inst");
            metrics->set("core.sample_err_pct", sampleErrorPct(first), "%");
            metrics->set("flexcore.ns_per_packet.dift-threaded",
                         nsPerPacket(run_us, first, "dift", "threaded/1"),
                         "ns/packet");
        }
        if (options.workload == WorkloadId::kMulticoreDift) {
            const std::map<std::string, double> ref_us =
                fastestRunUs(spans, ref_begin, ref_end);
            const double one_core =
                nsPerCoreCycle(ref_us, reference, "interp/1");
            for (const FabricSharing sharing :
                 {FabricSharing::kShared, FabricSharing::kPerCore}) {
                const std::string topo(
                    flexcore::fabricSharingName(sharing));
                const double ns = nsPerCoreCycle(
                    run_us, first,
                    variantName(ExecMode::kInterp, kMulticoreCores,
                                sharing));
                metrics->set("sim.multicore_ns_per_core_cycle." + topo,
                             ns, "ns/cycle");
                metrics->set("sim.multicore_scaling." + topo,
                             ns > 0 ? one_core / ns : 0, "x");
            }
        }
        std::vector<const RowOutcome *> outcomes;
        for (const auto &[key, out] : first)
            outcomes.push_back(&out);
        addCounts(metrics, outcomes);
        noteCoverage(window > 0 ? covered / window * 100 : 0, report,
                     metrics);
        const double plain_mips = fastestPerRow(plain, setup, first).mips;
        const double traced_mips =
            fastestPerRow(traced, setup, first).mips;
        metrics->set("trace.overhead_pct",
                     traced_mips > 0 ? (plain_mips / traced_mips - 1) * 100
                                     : 0,
                     "%");
        printLine("untraced sim_mips " + fmt("%.3f", plain_mips) +
                  ", traced sim_mips " + fmt("%.3f", traced_mips));
        printSelfTimes(spans);
        writeSpans(options, spans);
    }

    if (options.workload == WorkloadId::kSuiteInterp) {
        printLine("normalized execution time, geomean over six kernels "
                  "(simulated; the model is not validated against "
                  "hardware):");
        for (const auto &[ext, paper] : kPaperTable4) {
            const double sim = normalizedTime(first, kSuiteKernels, ext);
            printLine("  " + ext + ": simulated " + fmt("%.3f", sim) +
                      ", paper Table IV " + fmt("%.2f", paper) +
                      ", difference " +
                      fmt("%+.1f", (sim / paper - 1) * 100) + "%");
        }
    }
    if (options.workload == WorkloadId::kSuiteFast) {
        printLine("sampled-timing DIFT cycle estimate error (mean over six "
                  "kernels, simulated): " +
                  fmt("%.3f", sampleErrorPct(first)) + "%");
    }
}

void
runServe(const Options &options, const DigestTable &table, Report *report,
         MetricSet *metrics)
{
    Tracer tracer(options.trace);
    Tracer untraced(false);
    std::vector<double> setup_s;
    std::unique_ptr<ServeSetup> setup;
    auto timed_setups = [&] {
        for (int i = 0; i < kSetupRepeats; ++i) {
            // Tearing down the previous set-up, whose program cache
            // holds every raw source served, is not set-up time.
            setup.reset();
            const Clock::time_point t0 = Clock::now();
            Tracer::Scope span(tracer, "bench.setup", "", tracer.newRun());
            setup = setupServe(options, table, tracer, report);
            setup_s.push_back(secondsSince(t0));
        }
    };
    timed_setups();
    if (!setup->server)
        return;

    if (!options.trace) {
        const ServePhase phase = runServePhase(
            *setup, options.seed, 0, options.seconds, untraced, report);
        // More set-ups after the phase, so that setup_s, the median
        // repetition, does not hang on the host's state at start-up.
        timed_setups();
        const std::vector<double> &latency_ms = phase.latency_ms;
        printSetups(setup_s);
        metrics->set("setup_s", median(setup_s), "s");
        metrics->set("sim_mips", phase.mips, "MIPS");
        metrics->set("serve_rps", phase.rps, "1/s");
        metrics->set("req_p50_ms", median(latency_ms), "ms");
        metrics->set("peak_rss_mb", phase.rss_mb, "MB");
        printLine("requests: " + std::to_string(latency_ms.size()) +
                  " completed by " + std::to_string(kServeClients) +
                  " closed-loop clients");
        printLine("request latency " +
                  percentile(latency_ms, 0.99).describe("ms"));
    } else {
        const double third = options.seconds / 3;
        const ServePhase plain =
            runServePhase(*setup, options.seed, 0, third, untraced, report);
        const ServePhase traced =
            runServePhase(*setup, options.seed, 1, third, tracer, report);
        const double d_begin = tracer.nowUs();
        runDecomposed(*setup, options.seed, third, tracer, report);
        const double d_end = tracer.nowUs();
        const std::vector<Span> spans = tracer.spans();

        auto med = [&](const char *name) {
            return median(durations(spans, name, d_begin, d_end));
        };
        const double handle_us = med("serve.handle");
        const double request_us = median(durations(
            spans, "serve.request", traced.begin_us, traced.end_us));
        const Percentile p99 = percentile(plain.latency_ms, 0.99);
        printLine("request latency " + p99.describe("ms"));

        metrics->set("workloads.generate_ms",
                     medianPerRunTotalUs(spans, "workloads.generate") /
                         1e3,
                     "ms");
        metrics->set("assembler.assemble_us_per_kb",
                     assembleUsPerKb(spans, setup->kernels), "us/KB");
        metrics->set("sim.build_us", med("sim.build"), "us");
        metrics->set("serve.decode_us", med("serve.decode"), "us");
        metrics->set("serve.hash_us", med("serve.hash"), "us");
        metrics->set("serve.simulate_us", med("serve.simulate"), "us");
        metrics->set("common.stats_json_us", med("common.stats_json"),
                     "us");
        metrics->set("serve.render_us", med("serve.render"), "us");
        metrics->set("serve.handle_us", handle_us, "us");
        metrics->set("serve.transport_us", request_us - handle_us, "us");
        metrics->set("serve.req_p99_ms", p99.reportable ? p99.value : 0,
                     "ms");
        const double lookups = static_cast<double>(setup->cache.hits() +
                                                   setup->cache.misses());
        metrics->set("serve.cache_hit_ratio",
                     lookups > 0 ? static_cast<double>(setup->cache.hits()) /
                                       lookups
                                 : 0,
                     "ratio");
        metrics->set("serve.sims",
                     static_cast<double>(setup->server->sims()), "count");
        metrics->set("serve.errors",
                     static_cast<double>(setup->server->errors()), "count");
        metrics->set("serve.shed",
                     static_cast<double>(setup->server->shed()), "count");

        std::vector<const RowOutcome *> outcomes;
        for (const ServeRef &ref : setup->refs)
            outcomes.push_back(&ref.outcome);
        addCounts(metrics, outcomes);

        const double covered =
            topLevelCoverage(spans, traced.begin_us, traced.end_us) *
                (traced.end_us - traced.begin_us) +
            topLevelCoverage(spans, d_begin, d_end) * (d_end - d_begin);
        const double window =
            (traced.end_us - traced.begin_us) + (d_end - d_begin);
        noteCoverage(window > 0 ? covered / window * 100 : 0, report,
                     metrics);
        metrics->set("trace.overhead_pct",
                     traced.rps > 0 ? (plain.rps / traced.rps - 1) * 100 : 0,
                     "%");
        printLine("untraced serve_rps " + fmt("%.1f", plain.rps) +
                  ", traced serve_rps " + fmt("%.1f", traced.rps));
        printSelfTimes(spans);
        writeSpans(options, spans);
    }
    setup->stop();
}

}  // namespace

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

bool
parseWorkloadId(std::string_view name, WorkloadId *out)
{
    for (const WorkloadId id :
         {WorkloadId::kSuiteInterp, WorkloadId::kSuiteFast,
          WorkloadId::kMulticoreDift, WorkloadId::kServeMix}) {
        if (workloadIdName(id) == name) {
            *out = id;
            return true;
        }
    }
    return false;
}

std::string_view
workloadIdName(WorkloadId id)
{
    switch (id) {
    case WorkloadId::kSuiteInterp:
        return "suite-interp";
    case WorkloadId::kSuiteFast:
        return "suite-fast";
    case WorkloadId::kMulticoreDift:
        return "multicore-dift";
    case WorkloadId::kServeMix:
        return "serve-mix";
    }
    return "?";
}

void
Report::note(const std::string &why)
{
    ++attempted;
    if (why.empty())
        return;
    ++failed;
    if (failures.size() < kMaxFailuresKept)
        failures.push_back(why);
}

Kernel
makeKernel(const std::string &name, WorkloadScale scale, Tracer &tracer)
{
    Kernel kernel;
    kernel.name = name;
    {
        Tracer::Scope span(tracer, "workloads.generate", name);
        flexcore::makeWorkload(name, scale, &kernel.workload);
    }
    Tracer::Scope span(tracer, "assembler.assemble", name);
    Program program;
    flexcore::Assembler assembler;
    if (assembler.assemble(kernel.workload.source, &program))
        kernel.program = std::make_shared<const Program>(std::move(program));
    return kernel;
}

RowOutcome
runRow(const Row &row, const Kernel &kernel, const DigestTable &table,
       Tracer &tracer, bool want_counts)
{
    RowOutcome out;
    if (!kernel.program) {
        out.failure = row.key + ": kernel " + kernel.name +
                      " did not assemble";
        return out;
    }
    const uint64_t run = tracer.enabled() ? tracer.newRun() : 0;
    std::unique_ptr<System> system;
    {
        Tracer::Scope span(tracer, "sim.build", row.key, run);
        system = std::make_unique<System>(row.config);
        system->load(*kernel.program);
    }
    {
        Tracer::Scope span(tracer, "sim.run", row.key, run);
        out.result = system->run();
    }
    if (!row.sampled) {
        Tracer::Scope span(tracer, "common.stats_json", row.key, run);
        out.stats_json = system->stats().json();
    }
    {
        Tracer::Scope span(tracer, "bench.check", row.key, run);
        const u32 cores = system->numCores();
        std::string expected;
        for (u32 i = 0; i < cores; ++i)
            expected += kernel.workload.expected_console;
        std::string why = checkConsole(out.result, expected);
        if (!row.sampled) {
            out.digest = digestOf(*system, out.result, out.stats_json);
            if (why.empty())
                why = table.check(row.key, out.digest);
        }
        if (!why.empty())
            out.failure = row.key + ": " + why;
        out.core_cycles =
            sumOverCores(system->stats(), "core.cycles", cores);
        if (want_counts) {
            for (const auto &[name, path] : countPaths())
                out.counts[name] = sumOverCores(system->stats(), path, cores);
        }
    }
    Tracer::Scope span(tracer, "sim.teardown", row.key, run);
    system.reset();
    return out;
}

std::vector<std::string>
kernelNames(WorkloadId id)
{
    return id == WorkloadId::kMulticoreDift ? kMulticoreKernels
                                            : kSuiteKernels;
}

std::vector<Row>
rowsFor(WorkloadId id)
{
    std::vector<Row> rows;
    const std::vector<std::string> kernels = kernelNames(id);
    for (size_t k = 0; k < kernels.size(); ++k) {
        auto add = [&](const std::string &ext, SystemConfig config,
                       const std::string &variant, bool sampled) {
            rows.push_back(makeRow("full", kernels, k, ext,
                                   std::move(config), variant, sampled));
        };
        switch (id) {
        case WorkloadId::kSuiteInterp:
            for (const std::string &ext : kSuiteExts)
                add(ext, extConfig(ext, ExecMode::kInterp), "interp/1",
                    false);
            break;
        case WorkloadId::kSuiteFast: {
            for (const std::string &ext : kFastExts)
                add(ext, extConfig(ext, ExecMode::kThreaded), "threaded/1",
                    false);
            SystemConfig sampled = extConfig("dift", ExecMode::kInterp);
            sampled.sample_window = kSampleWindow;
            sampled.sample_period = kSamplePeriod;
            add("dift", sampled, "sampled/1", true);
            break;
        }
        case WorkloadId::kMulticoreDift:
            for (const FabricSharing sharing :
                 {FabricSharing::kShared, FabricSharing::kPerCore}) {
                SystemConfig config = extConfig("dift", ExecMode::kInterp);
                config.num_cores = kMulticoreCores;
                config.fabric_sharing = sharing;
                add("dift", config,
                    variantName(ExecMode::kInterp, kMulticoreCores, sharing),
                    false);
            }
            break;
        case WorkloadId::kServeMix:
            break;
        }
    }
    return rows;
}

std::vector<RequestSpec>
serveMixSequence(u64 seed, u32 client, size_t n)
{
    RequestStream stream(seed, client, 0);
    std::vector<RequestSpec> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(stream.next());
    return out;
}

const std::vector<std::pair<std::string, std::string>> &
countPaths()
{
    static const std::vector<std::pair<std::string, std::string>> paths = {
        {"core.cycles", "core.cycles"},
        {"core.instructions", "core.instructions"},
        {"core.micro_ops", "core.micro_ops"},
        {"core.commit_cycles", "core.commit_cycles"},
        {"core.latency_stalls", "core.latency_stalls"},
        {"core.dmiss_wait", "core.dmiss_wait"},
        {"core.imiss_wait", "core.imiss_wait"},
        {"core.sb_wait", "core.sb_wait"},
        {"core.ffifo_full", "core.ffifo_full"},
        {"core.bus_queue_wait", "core.bus_queue_wait"},
        {"memory.icache.misses", "icache.misses"},
        {"memory.dcache.misses", "dcache.misses"},
        {"memory.bus.busy_cycles", "bus.busy_cycles"},
        {"memory.bus.queue_cycles", "bus.queue_cycles"},
        {"memory.sdram.row_misses", "bus.sdram.row_misses"},
        {"memory.store_buffer.full_stalls", "store_buffer.full_stalls"},
        {"memory.meta_cache.accesses", "meta_cache.accesses"},
        {"memory.meta_cache.misses", "meta_cache.misses"},
        {"flexcore.interface.forwarded", "interface.forwarded"},
        {"flexcore.interface.commit_stalls", "interface.commit_stalls"},
        {"flexcore.fabric.packets", "fabric.packets"},
        {"flexcore.fabric.meta_stall_cycles", "fabric.meta_stall_cycles"},
    };
    return paths;
}

Report
runBenchmark(const Options &options)
{
    Report report;
    MetricSet metrics;
    if (options.trace)
        zeroPerLayer(&metrics);
    DigestTable table;
    std::string error;
    if (!table.load(options.digests_path, &error)) {
        report.note(error);
        return report;
    }
    if (options.workload == WorkloadId::kServeMix)
        runServe(options, table, &report, &metrics);
    else
        runBatch(options, table, &report, &metrics);
    report.metrics = metrics.take();
    return report;
}

bool
recordDigests(const std::string &path, std::string *error)
{
    Tracer off(false);
    const DigestTable empty;
    DigestTable table;
    auto record = [&](const Row &row, const Kernel &kernel) {
        const RowOutcome out = runRow(row, kernel, empty, off, false);
        std::string expected;
        for (u32 i = 0; i < row.config.num_cores; ++i)
            expected += kernel.workload.expected_console;
        const std::string why = checkConsole(out.result, expected);
        if (!why.empty()) {
            *error = row.key + ": " + why;
            return false;
        }
        if (!row.sampled)
            table.set(row.key, out.digest);
        return true;
    };
    for (const WorkloadId id :
         {WorkloadId::kSuiteInterp, WorkloadId::kSuiteFast,
          WorkloadId::kMulticoreDift}) {
        const std::vector<Kernel> kernels =
            makeKernels(kernelNames(id), WorkloadScale::kFull, off);
        for (const Row &row : rowsFor(id)) {
            if (!record(row, kernels[row.kernel]))
                return false;
        }
    }
    const std::vector<Kernel> kernels =
        makeKernels(kSuiteKernels, WorkloadScale::kTest, off);
    for (const Row &row : serveRows()) {
        if (!record(row, kernels[row.kernel]))
            return false;
    }
    std::ofstream out(path);
    out << table.render();
    if (!out) {
        *error = "cannot write " + path;
        return false;
    }
    return true;
}

}  // namespace flexbench
