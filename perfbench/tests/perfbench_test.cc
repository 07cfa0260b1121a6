// Tests of the benchmark's own machinery: percentile refusal, span self
// time, open-loop accounting under a fake clock, and the traced diagnose
// pipeline against Diagnose.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "host_speed.h"
#include "diagnosis/diagnoser.h"
#include "layers.h"
#include "open_loop.h"
#include "petri/examples.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, RefusesWithFewerThanTenSamplesBeyond) {
  EXPECT_EQ(Percentile(OneTo(100), 0.90), 90.0);  // 10 beyond
  EXPECT_FALSE(Percentile(OneTo(99), 0.90).has_value());  // 9 beyond
  EXPECT_EQ(Percentile(OneTo(1000), 0.99), 990.0);
  EXPECT_FALSE(Percentile(OneTo(999), 0.99).has_value());
  EXPECT_EQ(Percentile(OneTo(21), 0.50), 11.0);
  EXPECT_FALSE(Percentile(OneTo(19), 0.50).has_value());
  EXPECT_FALSE(Percentile({}, 0.50).has_value());
}

TEST(PercentileTest, MedianOfEvenAndOddCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(HostSpeedTest, ScaleIsReferenceOverMedianProbe) {
  HostSpeed host;
  EXPECT_EQ(host.Scale(), 1.0);  // no probe yet: no scaling
  for (int i = 0; i < 3; ++i) host.Probe();
  EXPECT_EQ(host.probes(), 3u);
  EXPECT_GT(host.MedianProbeMs(), 0.0);
  EXPECT_DOUBLE_EQ(host.Scale(), kReferenceProbeMs / host.MedianProbeMs());
}

TEST(TraceTest, SelfTimeOnHandBuiltTree) {
  //   root [0,100]
  //     a [10,40]      gc [15,20] under a
  //     b [30,60]      overlaps a: the union, not the sum, is subtracted
  //     c [90,120]     clipped to the root's end
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 0}, {"a", 10, 40, 0, 0}, {"gc", 15, 20, 1, 0},
      {"b", 30, 60, 0, 0},     {"c", 90, 120, 0, 0},
  };
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 40u);  // 100 - |[10,60] + [90,100]|
  EXPECT_EQ(self[1], 25u);
  EXPECT_EQ(self[2], 5u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 30u);
}

TEST(TraceTest, ScopesNestAndSumByName) {
  dqsq::ManualClock clock;
  Tracer tracer(clock);
  {
    Tracer::Scope op(&tracer, "op", 7);
    clock.Advance(2);
    {
      Tracer::Scope layer(&tracer, "layer", 7);
      clock.Advance(5);
    }
    clock.Advance(1);
  }
  { Tracer::Scope none(nullptr, "ignored", 0); }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[1].op, 7u);
  EXPECT_EQ(tracer.SelfTimeByName().at("op"), 3u);
  EXPECT_EQ(tracer.TotalTimeByName().at("op"), 8u);
  EXPECT_NE(tracer.ToChromeJson().find("\"name\":\"layer\""),
            std::string::npos);
}

TEST(OpenLoopTest, LatenessAndBacklogUnderFakeClock) {
  dqsq::ManualClock clock;
  const uint64_t service[] = {5, 25, 5, 5, 5};
  auto send = [&](size_t i) { clock.Advance(service[i]); };
  auto wait = [&](uint64_t t) { clock.AdvanceTo(t); };
  OpenLoopResult r = RunOpenLoop(clock, 10, 5, send, wait);
  // Due 0,10,20,30,40; the 25-unit stall at #1 makes #2..#4 late.
  EXPECT_EQ(r.late_ms, (std::vector<double>{0, 0, 15e-6, 10e-6, 5e-6}));
  EXPECT_EQ(r.latency_ms,
            (std::vector<double>{5e-6, 25e-6, 20e-6, 15e-6, 10e-6}));
  EXPECT_EQ(r.service_ms, (std::vector<double>{5e-6, 25e-6, 5e-6, 5e-6, 5e-6}));
  EXPECT_EQ(r.backlog_max, 1u);
  EXPECT_FALSE(r.stopped);
  EXPECT_EQ(clock.now(), 50u);
}

TEST(OpenLoopTest, StopsWhenASendWouldRunTooLate) {
  dqsq::ManualClock clock;
  auto send = [&](size_t) { clock.Advance(25); };
  auto wait = [&](uint64_t t) { clock.AdvanceTo(t); };
  OpenLoopResult r = RunOpenLoop(clock, 10, 100, send, wait, 12);
  // #0 runs 0..25; #1 is due at 10, so it would be sent 15 late (> 12).
  EXPECT_TRUE(r.stopped);
  EXPECT_EQ(r.latency_ms.size(), 1u);
}

uint64_t EvalTotal(const dqsq::MetricsSnapshot& diff, const char* name) {
  return diff.Total(std::string("datalog.eval.") + name);
}

void ExpectTracedMatchesDiagnose(const dqsq::petri::PetriNet& net,
                                 const dqsq::petri::AlarmSequence& alarms) {
  auto& registry = dqsq::MetricsRegistry::Global();
  dqsq::diagnosis::DiagnosisOptions options;
  options.engine = dqsq::diagnosis::DiagnosisEngine::kCentralQsq;
  dqsq::MetricsSnapshot s0 = registry.Snapshot();
  auto direct = dqsq::diagnosis::Diagnose(net, alarms, options);
  dqsq::MetricsSnapshot s1 = registry.Snapshot();
  Tracer tracer;
  size_t rules = 0;
  auto traced = TracedDiagnose(net, alarms, tracer, 0, &rules);
  dqsq::MetricsSnapshot s2 = registry.Snapshot();
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(traced.ok());
  EXPECT_EQ(*traced, direct->explanations);
  EXPECT_GT(rules, 0u);
  const dqsq::MetricsSnapshot d_direct = s1.Diff(s0);
  const dqsq::MetricsSnapshot d_traced = s2.Diff(s1);
  for (const char* name : {"runs", "rounds", "facts_derived", "rule_firings",
                           "join_probes", "depth_pruned", "delta_rows"}) {
    EXPECT_EQ(EvalTotal(d_traced, name), EvalTotal(d_direct, name)) << name;
  }
  EXPECT_EQ(EvalTotal(d_traced, "runs"), 1u);
  const auto by_name = tracer.TotalTimeByName();
  for (const char* layer : {"diagnosis.encode", "datalog.rewrite",
                            "datalog.eval", "datalog.ask"}) {
    EXPECT_TRUE(by_name.contains(layer)) << layer;
  }
}

TEST(TracedDiagnoseTest, ReproducesDiagnoseOnThePaperNet) {
  const dqsq::petri::PetriNet paper = dqsq::petri::MakePaperNet(true);
  dqsq::Rng rng(5);
  auto run = dqsq::petri::GenerateRun(paper, 5, rng);
  ASSERT_TRUE(run.ok());
  ExpectTracedMatchesDiagnose(paper, run->observation);
}

TEST(TracedDiagnoseTest, ReproducesDiagnoseOnARandomNet) {
  auto w = dqsq::bench::MakeDiagnosisWorkload(123, 3, 3);
  ExpectTracedMatchesDiagnose(w.net, w.observation);
}

TEST(ReinterleaveTest, KeepsEveryPeersSubsequence) {
  auto w = dqsq::bench::MakeDiagnosisWorkload(7, 3, 6);
  dqsq::Rng rng(99);
  const auto shuffled = ReinterleaveAcrossPeers(w.observation, rng);
  EXPECT_EQ(dqsq::petri::SplitByPeer(shuffled),
            dqsq::petri::SplitByPeer(w.observation));
}

}  // namespace
}  // namespace perfbench
