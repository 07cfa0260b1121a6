#include "layers.h"

#include <map>

#include "petri/random_net.h"

namespace perfbench {

CountScope::~CountScope() {
  const dqsq::MetricsSnapshot diff =
      dqsq::MetricsRegistry::Global().Snapshot().Diff(before_);
  counts_.eval_runs += diff.Total("datalog.eval.runs");
  counts_.eval_rounds += diff.Total("datalog.eval.rounds");
  counts_.eval_join_probes += diff.Total("datalog.eval.join_probes");
  counts_.eval_rule_firings += diff.Total("datalog.eval.rule_firings");
  counts_.eval_facts_derived += diff.Total("datalog.eval.facts_derived");
  counts_.peer_fixpoints += diff.Total("dist.peer.fixpoints");
  counts_.messages += diff.Total("dist.net.messages_delivered");
  counts_.tuples_shipped += diff.Total("dist.net.tuples_shipped");
}

void AddSpanTimes(Report& report, const Tracer& tracer,
                  const std::string& op_span, double ops) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  std::map<std::string, uint64_t> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    size_t root = i;
    while (spans[root].parent >= 0) {
      root = static_cast<size_t>(spans[root].parent);
    }
    if (root != i && spans[root].name == op_span) {
      by_name[spans[i].name] += self[i];
    }
  }
  for (const auto& [name, ns] : by_name) {
    report.Add(name + "_ms", static_cast<double>(ns) / 1e6 / ops, "ms");
  }
}

void AddCounts(Report& report, const LayerCounts& counts, double ops) {
  auto per_op = [&](const char* name, uint64_t v, const char* unit) {
    report.Add(name, static_cast<double>(v) / ops, unit);
  };
  per_op("datalog.eval_runs", counts.eval_runs, "runs");
  per_op("datalog.eval_rounds", counts.eval_rounds, "rounds");
  per_op("datalog.eval_join_probes", counts.eval_join_probes, "rows");
  per_op("datalog.eval_rule_firings", counts.eval_rule_firings, "firings");
  per_op("datalog.eval_facts_derived", counts.eval_facts_derived, "facts");
  per_op("dist.peer_fixpoints", counts.peer_fixpoints, "count");
  per_op("dist.messages", counts.messages, "count");
  per_op("dist.tuples_shipped", counts.tuples_shipped, "rows");
  report.Add("datalog.eval_new_per_firing",
             counts.eval_rule_firings == 0
                 ? 0.0
                 : static_cast<double>(counts.eval_facts_derived) /
                       static_cast<double>(counts.eval_rule_firings),
             "ratio");
}

void AddTraceChecks(Report& report, const Tracer& tracer,
                    const std::string& op_span, double untraced_ops_per_s,
                    double traced_ops_per_s) {
  const auto self = tracer.SelfTimeByName();
  const auto total = tracer.TotalTimeByName();
  const auto op_self = self.find(op_span);
  const auto op_total = total.find(op_span);
  if (op_self != self.end() && op_total->second > 0) {
    report.Add("trace.unattributed_pct",
               100.0 * static_cast<double>(op_self->second) /
                   static_cast<double>(op_total->second),
               "%");
  }
  report.Add("trace.overhead_pct",
             100.0 * (untraced_ops_per_s / traced_ops_per_s - 1.0), "%");
}

dqsq::petri::PetriNet DiagnosabilitySweepNet(uint64_t net_seed) {
  dqsq::petri::RandomNetOptions options;
  options.num_peers = 2 + static_cast<uint32_t>(net_seed % 2);
  options.places_per_peer = 3;
  options.transitions_per_peer = 3 + static_cast<uint32_t>(net_seed % 3);
  options.sync_probability = 0.3;
  options.num_alarm_symbols = 1 + static_cast<uint32_t>(net_seed % 3);
  options.hidden_probability = (net_seed % 3 == 0) ? 0.2 : 0.4;
  options.fault_fraction = (net_seed % 3 == 0)   ? 0.0
                           : (net_seed % 3 == 1) ? 0.25
                                                 : 0.5;
  dqsq::Rng rng(net_seed);
  return dqsq::petri::MakeRandomNet(options, rng);
}

}  // namespace perfbench
