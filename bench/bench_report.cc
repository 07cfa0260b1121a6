#include "bench/bench_report.h"

#include <cstdio>
#include <cstdlib>
#include <map>

namespace dqsq::bench {

BenchReporter::BenchReporter(std::string experiment)
    : experiment_(std::move(experiment)),
      start_(MetricsRegistry::Global().Snapshot()),
      start_time_(std::chrono::steady_clock::now()) {}

BenchReporter::~BenchReporter() { Write(); }

void BenchReporter::Param(const std::string& key, const std::string& value) {
  std::string quoted;
  AppendJsonString(value, &quoted);
  params_.emplace_back(key, std::move(quoted));
}

void BenchReporter::Param(const std::string& key, int64_t value) {
  params_.emplace_back(key, std::to_string(value));
}

void BenchReporter::Param(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  params_.emplace_back(key, buf);
}

std::string BenchReporter::Write() {
  if (written_) return path_;
  written_ = true;

  const uint64_t wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
  MetricsSnapshot diff = MetricsRegistry::Global().Snapshot().Diff(start_);

  // Per-peer message counts: dist.net.channel_messages aggregated by the
  // receiving peer ("to" label).
  std::map<std::string, uint64_t> per_peer;
  for (const MetricSample& s : diff.samples) {
    if (s.name != "dist.net.channel_messages") continue;
    const std::string* to = s.labels.Find("to");
    if (to != nullptr) per_peer[*to] += s.value;
  }

  std::string json = "{\n";
  json += "  \"schema_version\": 1,\n";
  json += "  \"experiment\": ";
  AppendJsonString(experiment_, &json);
  json += ",\n";
  json += "  \"params\": {";
  for (size_t i = 0; i < params_.size(); ++i) {
    if (i > 0) json += ", ";
    AppendJsonString(params_[i].first, &json);
    json += ": " + params_[i].second;
  }
  json += "},\n";
  json += "  \"wall_time_ns\": " + std::to_string(wall_ns) + ",\n";
  json += "  \"summary\": {\n";
  json += "    \"facts_derived\": " +
          std::to_string(diff.Total("datalog.eval.facts_derived")) + ",\n";
  json += "    \"unfolding_events\": " +
          std::to_string(diff.Total("petri.unfold.events")) + ",\n";
  json += "    \"unfolding_conditions\": " +
          std::to_string(diff.Total("petri.unfold.conditions")) + ",\n";
  json += "    \"messages_delivered\": " +
          std::to_string(diff.Total("dist.net.messages_delivered")) + ",\n";
  json += "    \"tuples_shipped\": " +
          std::to_string(diff.Total("dist.net.tuples_shipped")) + ",\n";
  json += "    \"per_peer_messages\": {";
  bool first = true;
  for (const auto& [peer, count] : per_peer) {
    if (!first) json += ", ";
    first = false;
    AppendJsonString(peer, &json);
    json += ": " + std::to_string(count);
  }
  json += "}\n";
  json += "  },\n";
  json += "  \"metrics\": " + diff.ToJson() + "\n";
  json += "}\n";

  const char* dir = std::getenv("DQSQ_BENCH_OUT_DIR");
  path_ = (dir != nullptr && dir[0] != '\0') ? std::string(dir) + "/" : "";
  path_ += "BENCH_" + experiment_ + ".json";
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_report: cannot write %s\n", path_.c_str());
    return path_;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "bench_report: wrote %s\n", path_.c_str());
  return path_;
}

}  // namespace dqsq::bench
