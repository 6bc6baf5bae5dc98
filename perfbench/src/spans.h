/**
 * @file
 * In-memory span tracing for the benchmark's traced runs. A span
 * brackets one call from the benchmark into a layer of the simulator
 * (workloads, assembler, sim, common, serve) or one client request;
 * it records a name, an optional label (the row or request kind), its
 * start and end, the span open on the same thread when it began (its
 * parent) and a run id shared by every span of one operation. Spans
 * stay in memory until the run ends and are written out once.
 *
 * A disabled tracer costs one branch per scope, so the untraced runs
 * that report end-to-end metrics measure the same code path.
 */

#ifndef FLEXBENCH_SPANS_H_
#define FLEXBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace flexbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;   //!< 0 = top-level
    uint64_t run = 0;      //!< operation the span belongs to
    std::string name;      //!< "<layer>.<call>", e.g. "sim.run"
    std::string label;     //!< row key or request kind ("" = none)
    double start_us = 0;   //!< since the tracer's epoch
    double end_us = 0;

    double durationUs() const { return end_us - start_us; }
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** Microseconds since this tracer was created. */
    double nowUs() const;

    /** A fresh run id for one operation. */
    uint64_t newRun();

    /**
     * RAII span. Nests under the innermost span open on the calling
     * thread; a zero @p run inherits the parent's run id.
     */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string_view name,
              std::string_view label = {}, uint64_t run = 0);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_ = nullptr;   //!< null when tracing is off
        Span span_;
    };

    /** Every closed span, ordered by start time. */
    std::vector<Span> spans() const;

  private:
    void record(Span span);

    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;   //!< guarded by mutex_
    uint64_t next_id_ = 1;      //!< guarded by mutex_
};

/** Self time of every span: its duration minus the part of it that
 * its children cover, indexed like @p spans. */
std::vector<double> selfTimesUs(const std::vector<Span> &spans);

/**
 * Share of [@p begin_us, @p end_us] covered by the union of the
 * top-level spans (parent 0) that overlap it, in [0, 1].
 */
double topLevelCoverage(const std::vector<Span> &spans, double begin_us,
                        double end_us);

}  // namespace flexbench

#endif  // FLEXBENCH_SPANS_H_
