// The benchmark's shared vocabulary: command-line options, the result
// every workload returns, and the closed-loop runner.
#ifndef DQSQ_PERFBENCH_PERFBENCH_H_
#define DQSQ_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "host_speed.h"
#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its Chrome trace ("" = not written).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run reports. `failed` counts ops that returned an error
/// or disagreed with the oracle.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Chrome trace of the traced run.
  std::string trace_json;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

Report RunDiagnose(const Options& options);
Report RunServe(const Options& options);
Report RunWire(const Options& options);

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetUps = 5;

/// Runs `set_up()`, which returns its own wall time in seconds, kSetUps
/// times with three host probes before each and after the last, and
/// returns the wall times. The set-ups take the first seconds of a run
/// and the host's speed can change within seconds, so they are scaled by
/// their own probes (`host`), not by those of the timed phase.
template <class SetUp>
std::vector<double> RunSetUps(HostSpeed& host, SetUp&& set_up) {
  std::vector<double> seconds;
  for (int r = 0; r < kSetUps; ++r) {
    host.Probe(3);
    seconds.push_back(set_up());
  }
  host.Probe(3);
  return seconds;
}

struct ClosedLoopResult {
  std::vector<double> latency_ms;      // one per completed op
  std::vector<double> pass_ops_per_s;  // one per whole pass
  double seconds = 0;                  // time of the whole passes
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// One client, closed loop: whole passes over ops 0..num_ops-1 (in an
/// order reshuffled from `rng` every pass) until `seconds` of pass time
/// have run. `run_op(i)` performs nothing but op i; `check(i)` compares its
/// stored answer with the oracle after the pass, outside the timed
/// interval, and returns false on a mismatch. After each pass, outside the
/// timed interval, `host` (if not null) runs its probe.
template <class RunOp, class Check>
ClosedLoopResult RunClosedLoop(size_t num_ops, double seconds, dqsq::Rng& rng,
                               HostSpeed* host, RunOp&& run_op,
                               Check&& check) {
  ClosedLoopResult out;
  std::vector<size_t> order(num_ops);
  for (size_t i = 0; i < num_ops; ++i) order[i] = i;
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  uint64_t timed_ns = 0;
  while (timed_ns < budget_ns || out.pass_ops_per_s.empty()) {
    rng.Shuffle(order);
    const uint64_t pass_start = NowNs();
    for (size_t i : order) {
      const uint64_t t0 = NowNs();
      run_op(i);
      out.latency_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }
    const uint64_t pass_ns = NowNs() - pass_start;
    timed_ns += pass_ns;
    out.pass_ops_per_s.push_back(static_cast<double>(num_ops) * 1e9 /
                                 static_cast<double>(pass_ns));
    for (size_t i = 0; i < num_ops; ++i) {
      ++out.attempted;
      if (!check(i)) ++out.failed;
    }
    if (host != nullptr) host->Probe();
  }
  out.seconds = static_cast<double>(timed_ns) / 1e9;
  return out;
}

/// The traced run's loop: `plain_passes` untraced passes (run_op, check),
/// then one traced pass (traced_op, traced_check), repeated until
/// `seconds` have run and the untraced side holds `min_plain_samples`
/// latencies, so host drift hits both sides alike. Returns the untraced
/// and the traced side.
template <class RunOp, class Check, class TracedOp, class TracedCheck>
std::pair<ClosedLoopResult, ClosedLoopResult> RunAlternating(
    size_t num_ops, double seconds, int plain_passes,
    size_t min_plain_samples, dqsq::Rng& rng,
    RunOp&& run_op, Check&& check, TracedOp&& traced_op,
    TracedCheck&& traced_check) {
  std::pair<ClosedLoopResult, ClosedLoopResult> out;
  auto append = [](ClosedLoopResult& to, ClosedLoopResult&& from) {
    to.latency_ms.insert(to.latency_ms.end(), from.latency_ms.begin(),
                         from.latency_ms.end());
    to.pass_ops_per_s.insert(to.pass_ops_per_s.end(),
                             from.pass_ops_per_s.begin(),
                             from.pass_ops_per_s.end());
    to.attempted += from.attempted;
    to.failed += from.failed;
  };
  const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  do {
    for (int k = 0; k < plain_passes; ++k) {
      append(out.first,
             RunClosedLoop(num_ops, 0, rng, nullptr, run_op, check));
    }
    append(out.second, RunClosedLoop(num_ops, 0, rng, nullptr, traced_op,
                                     traced_check));
  } while (NowNs() < end || out.first.latency_ms.size() < min_plain_samples);
  return out;
}

/// The end-to-end metrics every workload reports, each timing scaled to
/// reference host speed: setup_s is the median of `setup_s` scaled by
/// `setup_host`; the rest are scaled by `host`. ops_per_s is
/// `latency_ms.size()` ops over `seconds`; latency_p50_ms and
/// latency_p90_ms are percentiles of `latency_ms`. A run whose p90 the
/// sample cannot support (stats.h) fails rather than print a guess.
void AddEndToEnd(Report& report, const HostSpeed& setup_host,
                 const std::vector<double>& setup_s, const HostSpeed& host,
                 const std::vector<double>& latency_ms, double seconds);

/// The percentile `q` of `samples`, or exits the run with status 2 when
/// fewer than kMinSamplesBeyond samples lie beyond it. Prints the
/// percentile and its sample count to stderr under `name`.
double RequirePercentile(const char* name, const std::vector<double>& samples,
                         double q);

}  // namespace perfbench

#endif  // DQSQ_PERFBENCH_PERFBENCH_H_
