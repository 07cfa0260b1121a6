// E4_service — multi-tenant online diagnosis serving (ROADMAP item 2):
// sessions/sec and p99 alarm-to-answer latency at 1k, 10k and 100k
// concurrent sessions over one plant model, all on one thread. Sessions
// draw their alarm streams from a small deterministic pool of generated
// runs, so the shared prefix cache does what it does in production — the
// first session reaching a prefix evaluates, every later session is
// served from the memoized answers. The
// resident-session cap is far below the session count, so the round-robin
// alarm schedule also churns the hibernate/restore path on every tick.
//
// All counts in the report (alarms, cache hits/misses, hibernations,
// restores, durable bytes, explanation checksum, registry counters) are
// deterministic for the fixed seed and schedule and are pinned by
// bench/baselines/BENCH_E4_service.json in CI; timing fields use the _ns
// suffix / ns unit, which the guard bounds to a ratio of the baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "common/logging.h"
#include "common/rng.h"
#include "diagnosis/service.h"
#include "petri/alarm.h"
#include "petri/examples.h"

using namespace dqsq;

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A deterministic pool of distinct alarm streams from generated runs of
/// the plant (non-empty observations only).
std::vector<petri::AlarmSequence> MakeStreamPool(const petri::PetriNet& net,
                                                 size_t pool_size,
                                                 size_t num_firings,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<petri::AlarmSequence> pool;
  while (pool.size() < pool_size) {
    auto run = petri::GenerateRun(net, num_firings, rng);
    DQSQ_CHECK_OK(run.status());
    if (run->observation.empty()) continue;
    pool.push_back(run->observation);
  }
  return pool;
}

struct PhaseResult {
  uint64_t alarms = 0;
  uint64_t explanation_checksum = 0;  // sum over answers of |explanations|
  uint64_t open_ns = 0;
  uint64_t observe_ns = 0;
  uint64_t p99_alarm_ns = 0;
};

PhaseResult RunPhase(size_t num_sessions, size_t resident_cap,
                     const std::vector<petri::AlarmSequence>& pool,
                     const petri::PetriNet& net) {
  diagnosis::ServiceOptions opts;
  opts.max_sessions = num_sessions;
  opts.max_resident_sessions = resident_cap;
  diagnosis::DiagnosisService service(opts);
  DQSQ_CHECK_OK(service.RegisterModel("plant", net));

  // An open takes about a microsecond, so the wall time of the whole open
  // phase is dominated by whichever scheduler stall or page-fault burst
  // lands in it (4x apart over repeated runs at 1k sessions). open_ns is
  // therefore the median single open scaled to the session count.
  PhaseResult out;
  std::vector<uint64_t> opens(num_sessions);
  for (size_t i = 0; i < num_sessions; ++i) {
    const uint64_t t0 = NowNs();
    DQSQ_CHECK_OK(service.OpenSession("s" + std::to_string(i), "plant"));
    opens[i] = NowNs() - t0;
  }
  std::nth_element(opens.begin(), opens.begin() + num_sessions / 2,
                   opens.end());
  out.open_ns = opens[num_sessions / 2] * num_sessions;

  size_t max_len = 0;
  for (const auto& stream : pool) max_len = std::max(max_len, stream.size());

  std::vector<uint64_t> latencies;
  latencies.reserve(num_sessions * max_len);
  const uint64_t observe_start = NowNs();
  // Round-robin: every session advances one alarm per tick — the
  // interleaving a real server sees, and the worst case for residency
  // (every Observe below the cap is a restore + an eviction).
  for (size_t round = 0; round < max_len; ++round) {
    for (size_t i = 0; i < num_sessions; ++i) {
      const petri::AlarmSequence& stream = pool[i % pool.size()];
      if (round >= stream.size()) continue;
      const uint64_t t0 = NowNs();
      auto result = service.Observe("s" + std::to_string(i), stream[round]);
      DQSQ_CHECK_OK(result.status());
      latencies.push_back(NowNs() - t0);
      ++out.alarms;
      out.explanation_checksum += result->size();
    }
  }
  out.observe_ns = NowNs() - observe_start;

  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    const size_t idx = (latencies.size() * 99) / 100;
    out.p99_alarm_ns = latencies[std::min(idx, latencies.size() - 1)];
  }
  return out;
}

void Report(bench::BenchReporter& reporter, const std::string& prefix,
            size_t sessions, size_t resident_cap, const PhaseResult& r) {
  reporter.Param(prefix + "_sessions", static_cast<int64_t>(sessions));
  reporter.Param(prefix + "_resident_cap", static_cast<int64_t>(resident_cap));
  reporter.Param(prefix + "_alarms", static_cast<int64_t>(r.alarms));
  reporter.Param(prefix + "_explanation_checksum",
                 static_cast<int64_t>(r.explanation_checksum));
  reporter.Param(prefix + "_open_ns", static_cast<int64_t>(r.open_ns));
  reporter.Param(prefix + "_observe_ns", static_cast<int64_t>(r.observe_ns));
  reporter.Param(prefix + "_p99_alarm_ns",
                 static_cast<int64_t>(r.p99_alarm_ns));
  const double secs = static_cast<double>(r.observe_ns) / 1e9;
  const double alarms_per_sec =
      secs > 0 ? static_cast<double>(r.alarms) / secs : 0.0;
  const double sessions_per_sec =
      r.open_ns > 0
          ? static_cast<double>(sessions) / (static_cast<double>(r.open_ns) / 1e9)
          : 0.0;
  std::fprintf(stderr,
               "%s: %zu sessions (cap %zu): open %.1f sessions/sec, "
               "%.0f alarms/sec, p99 alarm-to-answer %.3f ms\n",
               prefix.c_str(), sessions, resident_cap, sessions_per_sec,
               alarms_per_sec, static_cast<double>(r.p99_alarm_ns) / 1e6);
}

}  // namespace

int main() {
  bench::BenchReporter reporter("E4_service");
  petri::PetriNet net = petri::MakePaperNet(/*with_loop=*/true);
  const size_t kPoolSize = 16;
  const size_t kNumFirings = 6;
  const uint64_t kSeed = 41;
  auto pool = MakeStreamPool(net, kPoolSize, kNumFirings, kSeed);
  reporter.Param("workload", "paper_net_loop/generated_runs");
  reporter.Param("stream_pool", static_cast<int64_t>(pool.size()));
  reporter.Param("seed", static_cast<int64_t>(kSeed));

  PhaseResult r1k = RunPhase(1'000, 128, pool, net);
  Report(reporter, "run1k", 1'000, 128, r1k);

  PhaseResult r10k = RunPhase(10'000, 1'024, pool, net);
  Report(reporter, "run10k", 10'000, 1'024, r10k);

  // Same resident cap at ten times the sessions: restore/hibernate must
  // stay cheap per alarm as the hibernated population grows.
  PhaseResult r100k = RunPhase(100'000, 1'024, pool, net);
  Report(reporter, "run100k", 100'000, 1'024, r100k);

  reporter.Write();
  return 0;
}
