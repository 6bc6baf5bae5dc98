#include "spans.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace flexbench {

namespace {

/** Ids of the spans open on this thread, innermost last. */
thread_local std::vector<std::pair<uint64_t, uint64_t>> t_open;  // id, run

}  // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     epoch_)
        .count();
}

uint64_t
Tracer::newRun()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_id_++;
}

Tracer::Scope::Scope(Tracer &tracer, std::string_view name,
                     std::string_view label, uint64_t run)
{
    if (!tracer.enabled())
        return;
    tracer_ = &tracer;
    {
        std::lock_guard<std::mutex> lock(tracer.mutex_);
        span_.id = tracer.next_id_++;
    }
    if (!t_open.empty()) {
        span_.parent = t_open.back().first;
        if (run == 0)
            run = t_open.back().second;
    }
    span_.run = run;
    span_.name = name;
    span_.label = label;
    t_open.emplace_back(span_.id, span_.run);
    span_.start_us = tracer.nowUs();
}

Tracer::Scope::~Scope()
{
    if (!tracer_)
        return;
    span_.end_us = tracer_->nowUs();
    t_open.pop_back();
    tracer_->record(std::move(span_));
}

void
Tracer::record(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
Tracer::spans() const
{
    std::vector<Span> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out = spans_;
    }
    std::sort(out.begin(), out.end(), [](const Span &a, const Span &b) {
        return a.start_us < b.start_us ||
               (a.start_us == b.start_us && a.id < b.id);
    });
    return out;
}

std::vector<double>
selfTimesUs(const std::vector<Span> &spans)
{
    std::unordered_map<uint64_t, size_t> index;
    for (size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].durationUs();
    // Children run on their parent's thread, inside its interval and
    // one after another, so subtracting their durations leaves the
    // parent's own time.
    for (const Span &s : spans) {
        if (s.parent == 0)
            continue;
        const auto it = index.find(s.parent);
        if (it != index.end())
            self[it->second] -= s.durationUs();
    }
    return self;
}

double
topLevelCoverage(const std::vector<Span> &spans, double begin_us,
                 double end_us)
{
    if (end_us <= begin_us)
        return 0;
    std::vector<std::pair<double, double>> intervals;
    for (const Span &s : spans) {
        if (s.parent != 0)
            continue;
        const double lo = std::max(s.start_us, begin_us);
        const double hi = std::min(s.end_us, end_us);
        if (hi > lo)
            intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0;
    double cur_lo = 0;
    double cur_hi = -1;
    for (const auto &[lo, hi] : intervals) {
        if (lo > cur_hi) {
            if (cur_hi > cur_lo)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
        } else {
            cur_hi = std::max(cur_hi, hi);
        }
    }
    if (cur_hi > cur_lo)
        covered += cur_hi - cur_lo;
    return covered / (end_us - begin_us);
}

}  // namespace flexbench
