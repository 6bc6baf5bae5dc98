// Tests of the benchmark's own rules: the percentile rule, the digest
// gate and the seeded serve-mix request sequence.

#include <gtest/gtest.h>

#include "bench.h"
#include "metrics.h"
#include "spans.h"

namespace flexbench {
namespace {

TEST(PercentileRule, NeedsTenSamplesBeyond)
{
    std::vector<double> values;
    for (int i = 1; i <= 999; ++i)
        values.push_back(i);
    const Percentile short_sample = percentile(values, 0.99);
    EXPECT_FALSE(short_sample.reportable);
    EXPECT_EQ(short_sample.count, 999u);
    EXPECT_EQ(short_sample.beyond, 9u);
    EXPECT_NE(short_sample.describe("ms").find("not reported"),
              std::string::npos);

    values.push_back(1000);
    const Percentile p99 = percentile(values, 0.99);
    EXPECT_TRUE(p99.reportable);
    EXPECT_EQ(p99.beyond, 10u);
    EXPECT_DOUBLE_EQ(p99.value, 990);
    EXPECT_NE(p99.describe("ms").find("n=1000"), std::string::npos);
}

TEST(PercentileRule, MedianNeedsOnlyTenAbove)
{
    const Percentile p50 = percentile({5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11,
                                       12, 13, 14, 15, 16, 17, 18, 19, 20},
                                      0.5);
    EXPECT_TRUE(p50.reportable);
    EXPECT_DOUBLE_EQ(p50.value, 10);
    EXPECT_DOUBLE_EQ(median({3, 1, 2, 4}), 2.5);
}

class DigestGate : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string error;
        ASSERT_TRUE(table_.load(FLEXBENCH_DIGESTS, &error)) << error;
        kernel_ = makeKernel("basicmath", flexcore::WorkloadScale::kTest,
                             tracer_);
        row_.key = "test/basicmath/dift/interp/1";
        row_.config.monitor = flexcore::MonitorKind::kDift;
        row_.config.mode = flexcore::ImplMode::kFlexFabric;
    }

    DigestTable table_;
    Tracer tracer_{false};
    Kernel kernel_;
    Row row_;
};

TEST_F(DigestGate, RecordedDigestPasses)
{
    const RowOutcome out = runRow(row_, kernel_, table_, tracer_, false);
    EXPECT_EQ(out.failure, "");
    Report report;
    report.note(out.failure);
    EXPECT_EQ(report.failed, 0u);
}

TEST_F(DigestGate, WrongExpectedDigestCountsAsFailure)
{
    const RowOutcome good = runRow(row_, kernel_, table_, tracer_, false);
    Digest wrong = good.digest;
    wrong.forwarded += 1;
    table_.set(row_.key, wrong);
    const RowOutcome out = runRow(row_, kernel_, table_, tracer_, false);
    EXPECT_NE(out.failure.find("digest mismatch"), std::string::npos);

    Report report;
    report.note(good.failure);
    report.note(out.failure);
    EXPECT_EQ(report.attempted, 2u);
    EXPECT_EQ(report.failed, 1u);
}

TEST_F(DigestGate, MissingDigestCountsAsFailure)
{
    row_.key = "test/basicmath/dift/interp/unrecorded";
    const RowOutcome out = runRow(row_, kernel_, table_, tracer_, false);
    EXPECT_NE(out.failure.find("no expected digest"), std::string::npos);
}

TEST(ServeMix, SameSeedSameSequence)
{
    EXPECT_EQ(serveMixSequence(7, 0, 500), serveMixSequence(7, 0, 500));
    EXPECT_NE(serveMixSequence(7, 0, 500), serveMixSequence(8, 0, 500));
    EXPECT_NE(serveMixSequence(7, 0, 500), serveMixSequence(7, 1, 500));
}

TEST(ServeMix, DrawsTheStatedMix)
{
    const std::vector<RequestSpec> specs = serveMixSequence(3, 0, 8000);
    size_t stats = 0;
    size_t raw = 0;
    for (const RequestSpec &s : specs) {
        stats += s.stats_json;
        raw += s.raw_source;
        EXPECT_LT(s.kernel, 6u);
        EXPECT_LT(s.ext, 4u);
        EXPECT_LT(s.exec, 2u);
    }
    EXPECT_NEAR(static_cast<double>(stats) / specs.size(), 0.25, 0.02);
    EXPECT_NEAR(static_cast<double>(raw) / specs.size(), 0.10, 0.02);
}

TEST(Spans, SelfTimeAndCoverage)
{
    std::vector<Span> spans(3);
    spans[0] = {1, 0, 1, "sim.op", "", 0, 100};
    spans[1] = {2, 1, 1, "sim.run", "", 10, 70};
    spans[2] = {3, 0, 2, "sim.op", "", 150, 200};
    const std::vector<double> self = selfTimesUs(spans);
    EXPECT_DOUBLE_EQ(self[0], 40);
    EXPECT_DOUBLE_EQ(self[1], 60);
    EXPECT_DOUBLE_EQ(topLevelCoverage(spans, 0, 200), 0.75);
}

}  // namespace
}  // namespace flexbench
