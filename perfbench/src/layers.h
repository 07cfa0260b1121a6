// Per-layer metrics of the traced run: span self times per op, counts
// diffed from the MetricsRegistry around each op, and the two checks on
// the trace itself (its overhead and the op time no layer span covers).
#ifndef DQSQ_PERFBENCH_LAYERS_H_
#define DQSQ_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "diagnosis/explanation.h"
#include "perfbench.h"
#include "petri/alarm.h"
#include "petri/net.h"
#include "trace.h"

namespace perfbench {

/// Registry counters summed over every op of the traced run.
struct LayerCounts {
  uint64_t eval_runs = 0;
  uint64_t eval_rounds = 0;
  uint64_t eval_join_probes = 0;
  uint64_t eval_rule_firings = 0;
  uint64_t eval_facts_derived = 0;
  uint64_t peer_fixpoints = 0;
  uint64_t messages = 0;  // simulated-network deliveries
  uint64_t tuples_shipped = 0;
};

/// Snapshots the registry on construction and adds the diff to `counts`
/// on destruction. Open it outside the op span so the snapshots are not
/// charged to the op.
class CountScope {
 public:
  explicit CountScope(LayerCounts& counts)
      : counts_(counts), before_(dqsq::MetricsRegistry::Global().Snapshot()) {}
  ~CountScope();
  CountScope(const CountScope&) = delete;
  CountScope& operator=(const CountScope&) = delete;

 private:
  LayerCounts& counts_;
  dqsq::MetricsSnapshot before_;
};

/// Adds "<span>_ms" (mean self time per op) for every span name below the
/// op spans named `op_span` (other ops' spans in `tracer` are ignored).
void AddSpanTimes(Report& report, const Tracer& tracer,
                  const std::string& op_span, double ops);

/// Adds the counts per op, and facts derived per rule firing.
void AddCounts(Report& report, const LayerCounts& counts, double ops);

/// Adds trace.unattributed_pct (op-span self time over op-span time) and
/// trace.overhead_pct (untraced over traced ops/s, minus one).
void AddTraceChecks(Report& report, const Tracer& tracer,
                    const std::string& op_span, double untraced_ops_per_s,
                    double traced_ops_per_s);

/// The layers of distributed diagnosability checking on the simulated
/// cluster: every net of the E6 sweep checked by kDistQsq and kDistNaive
/// through the layers' public calls under spans (VerifierNet::Build,
/// BuildVerifierProgramText, parsing, Cluster construction,
/// RunUntilTermination, Ask, ExtractWitness + ReplayWitness), each verdict
/// compared with the brute-force oracle and its witness replayed. Adds
/// the span times and counts per verdict, and the ops to attempted/failed.
/// The spans go into `tracer` under op spans named "verify.op".
void AddVerifyLayers(Report& report, Tracer& tracer);

/// The same alarms with the per-peer subsequences kept and the cross-peer
/// interleaving redrawn from `rng`. Diagnosis depends only on the per-peer
/// subsequences (paper §4.2), so every engine must answer identically.
dqsq::petri::AlarmSequence ReinterleaveAcrossPeers(
    const dqsq::petri::AlarmSequence& alarms, dqsq::Rng& rng);

/// Diagnose(net, alarms) with kCentralQsq, redone through the layers'
/// public calls, each under a span of op `op`: encode (EncodeNet +
/// BuildSupervisorForSequence), rewrite (AdornProgram + QsqRewrite),
/// eval (Evaluate), ask (Ask + Canonicalize), Diagnose's materialized-node
/// extraction, and teardown. Stores the rewritten program's rule count.
dqsq::StatusOr<std::vector<dqsq::diagnosis::Explanation>> TracedDiagnose(
    const dqsq::petri::PetriNet& net, const dqsq::petri::AlarmSequence& alarms,
    Tracer& tracer, uint64_t op, size_t* rewrite_rules);

/// Net `net_seed` (1..50) of the E6 diagnosability sweep: the generator
/// ramp of bench/bench_diagnosability.cc, which crosses the
/// diagnosable/undiagnosable boundary.
dqsq::petri::PetriNet DiagnosabilitySweepNet(uint64_t net_seed);

}  // namespace perfbench

#endif  // DQSQ_PERFBENCH_LAYERS_H_
