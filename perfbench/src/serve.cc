// serve: open loop on one thread. Alarms arrive at a fixed rate, each for
// a uniformly chosen one of 10,000 sessions of the paper-net model behind
// a DiagnosisService with 1,024 resident sessions and a 16-stream pool.
// The prefix cache is warmed during set-up, so the timed phase runs no
// evaluation: about 9 in 10 alarms restore a hibernated session, and the
// session layer (CreateShared, restore, hibernate, snapshot codec) does
// the work. The rate is fixed well below capacity so every reported
// percentile lands in the restore mode, not between modes. The seed draws
// the stream pool, the session-to-stream map and the alarm targets.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "diagnosis/diagnoser.h"
#include "diagnosis/online.h"
#include "diagnosis/service.h"
#include "dist/snapshot.h"
#include "open_loop.h"
#include "perfbench.h"
#include "petri/examples.h"
#include "trace.h"

namespace perfbench {

using dqsq::diagnosis::Explanation;

namespace {

constexpr size_t kSessions = 10'000;
constexpr size_t kResidentCap = 1'024;
constexpr size_t kStreams = 16;
constexpr size_t kStreamLen = 8;
/// Offered rate of the fixed-rate phase: about half of
/// serve.max_rate_per_s (6,700/s when the benchmark was defined).
constexpr double kRatePerS = 3'300;
/// Latency limit of the max-rate search (p99 from due time).
constexpr double kP99LimitMs = 5;
constexpr size_t kWarmupAlarms = 2'000;
/// The timed phase's stretches; the host probe runs after each.
constexpr int kStretches = 20;

struct Stream {
  dqsq::petri::AlarmSequence alarms;
  std::vector<std::vector<Explanation>> expected;  // after alarm k
};

std::vector<Stream> MakeStreams(const dqsq::petri::PetriNet& net,
                                dqsq::Rng& rng) {
  std::vector<Stream> streams;
  while (streams.size() < kStreams) {
    auto run = dqsq::petri::GenerateRun(net, 2 * kStreamLen, rng);
    DQSQ_CHECK_OK(run.status());
    if (run->observation.size() < kStreamLen) continue;
    Stream s;
    s.alarms.assign(run->observation.begin(),
                    run->observation.begin() + kStreamLen);
    streams.push_back(std::move(s));
  }
  // Oracle: BFHJ explanations of every prefix, computed once per prefix.
  std::map<std::string, std::vector<Explanation>> memo;
  dqsq::diagnosis::DiagnosisOptions oracle;
  oracle.engine = dqsq::diagnosis::DiagnosisEngine::kBfhj;
  for (Stream& s : streams) {
    for (size_t k = 1; k <= kStreamLen; ++k) {
      dqsq::petri::AlarmSequence prefix(s.alarms.begin(),
                                        s.alarms.begin() + k);
      const std::string key = dqsq::petri::AlarmSequenceToString(prefix);
      auto it = memo.find(key);
      if (it == memo.end()) {
        auto r = dqsq::diagnosis::Diagnose(net, prefix, oracle);
        DQSQ_CHECK_OK(r.status());
        it = memo.emplace(key, r->explanations).first;
      }
      s.expected.push_back(it->second);
    }
  }
  return streams;
}

/// A service with every session admitted and the prefix cache warm.
struct ServeState {
  dqsq::dist::InMemoryDurableStore store;
  std::unique_ptr<dqsq::diagnosis::DiagnosisService> service;
  std::vector<size_t> pos;  // alarms the session has observed
};

class Serve {
 public:
  explicit Serve(const Options& options)
      : net_(dqsq::petri::MakePaperNet(true)),
        rng_(options.seed),
        streams_(MakeStreams(net_, rng_)) {
    for (size_t i = 0; i < kSessions; ++i) {
      names_.push_back("s" + std::to_string(i));
      stream_of_.push_back(static_cast<size_t>(rng_.NextBelow(kStreams)));
    }
  }

  /// Model registration, session admission, prefix-cache warm-up and a
  /// closed-loop warm-up pass. Returns its wall time in seconds.
  double SetUp() {
    state_.reset();
    const uint64_t t0 = NowNs();
    state_ = std::make_unique<ServeState>();
    dqsq::diagnosis::ServiceOptions so;
    so.max_sessions = kSessions + 1;  // + the cache-warming session
    so.max_resident_sessions = kResidentCap;
    so.store = &state_->store;
    state_->service = std::make_unique<dqsq::diagnosis::DiagnosisService>(so);
    auto& service = *state_->service;
    DQSQ_CHECK_OK(service.RegisterModel("plant", net_));
    for (const std::string& name : names_) {
      DQSQ_CHECK_OK(service.OpenSession(name, "plant"));
    }
    state_->pos.assign(kSessions, 0);
    for (const Stream& s : streams_) {
      DQSQ_CHECK_OK(service.OpenSession("warm", "plant"));
      for (size_t k = 0; k < kStreamLen; ++k) {
        auto r = service.Observe("warm", s.alarms[k]);
        ++attempted_;
        if (!r.ok() || *r != s.expected[k]) ++failed_;
      }
      DQSQ_CHECK_OK(service.CloseSession("warm"));
    }
    for (size_t i = 0; i < kWarmupAlarms; ++i) Handle(NextTarget());
    return static_cast<double>(NowNs() - t0) / 1e9;
  }

  size_t NextTarget() { return static_cast<size_t>(rng_.NextBelow(kSessions)); }

  /// One alarm for session `i`: reopen it if its stream is used up, then
  /// observe the next alarm and compare with the oracle.
  void Handle(size_t i, Tracer* tracer = nullptr, uint64_t op = 0) {
    auto& service = *state_->service;
    const std::string& name = names_[i];
    size_t& pos = state_->pos[i];
    if (pos == kStreamLen) {
      Tracer::Scope span(tracer, "diagnosis.service.reopen", op);
      DQSQ_CHECK_OK(service.CloseSession(name));
      DQSQ_CHECK_OK(service.OpenSession(name, "plant"));
      pos = 0;
    }
    const Stream& stream = streams_[stream_of_[i]];
    dqsq::StatusOr<std::vector<Explanation>> r = dqsq::InternalError("");
    if (tracer == nullptr) {
      r = service.Observe(name, stream.alarms[pos]);
    } else {
      const bool resident = service.is_resident(name);
      const uint64_t t0 = NowNs();
      {
        Tracer::Scope span(tracer, "diagnosis.service.observe", op);
        r = service.Observe(name, stream.alarms[pos]);
      }
      (resident ? resident_us_ : restore_us_)
          .push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    ++attempted_;
    if (!r.ok() || *r != stream.expected[pos]) ++failed_;
    ++pos;
  }

  /// Fixed-rate open loop for `seconds` (nullptr tracer: no spans).
  OpenLoopResult OpenLoop(double rate, double seconds, Tracer* tracer,
                          uint64_t max_late_ns = 0) {
    dqsq::Clock& clock = dqsq::SteadyClock::Default();
    const size_t count = static_cast<size_t>(rate * seconds);
    std::vector<size_t> targets(count);
    for (size_t& t : targets) t = NextTarget();
    return RunOpenLoop(
        clock, static_cast<uint64_t>(1e9 / rate), count,
        [&](size_t k) {
          if (tracer == nullptr) return Handle(targets[k]);
          Tracer::Scope span(tracer, "serve.op", next_op_);
          Handle(targets[k], tracer, next_op_++);
        },
        [&](uint64_t t) { SpinUntil(clock, t); }, max_late_ns);
  }

  /// Highest offered rate whose p99 (from due time) stays under
  /// kP99LimitMs with no growing backlog: bisection in log space.
  double MaxRate(double seconds) {
    constexpr int kProbes = 7;
    double lo = 500, hi = 50'000, best = 0;
    for (int p = 0; p < kProbes; ++p) {
      const double rate = std::sqrt(lo * hi);
      // At least 1,000 alarms, so the p99 has ten samples beyond it.
      OpenLoopResult r =
          OpenLoop(rate, std::max(seconds / kProbes, 1001 / rate), nullptr,
                   static_cast<uint64_t>(10 * kP99LimitMs * 1e6));
      const auto p99 = Percentile(r.latency_ms, 0.99);
      const bool pass = !r.stopped && p99 && *p99 < kP99LimitMs &&
                        r.late_ms.back() < kP99LimitMs;
      (pass ? lo : hi) = rate;
      if (pass) best = rate;
    }
    return best;
  }

  ServeState& state() { return *state_; }
  const std::vector<std::string>& names() const { return names_; }
  const dqsq::petri::PetriNet& net() const { return net_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  std::vector<double>& restore_us() { return restore_us_; }
  std::vector<double>& resident_us() { return resident_us_; }

 private:
  dqsq::petri::PetriNet net_;
  dqsq::Rng rng_;
  std::vector<Stream> streams_;
  std::vector<std::string> names_;
  std::vector<size_t> stream_of_;
  std::unique_ptr<ServeState> state_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t next_op_ = 0;
  std::vector<double> restore_us_, resident_us_;
};

void Append(OpenLoopResult& to, const OpenLoopResult& from) {
  auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  cat(to.latency_ms, from.latency_ms);
  cat(to.late_ms, from.late_ms);
  cat(to.service_ms, from.service_ms);
  to.backlog_max = std::max(to.backlog_max, from.backlog_max);
}

double BusySeconds(const OpenLoopResult& r) {
  double busy_ms = 0;
  for (double ms : r.service_ms) busy_ms += ms;
  return busy_ms / 1e3;
}

double ServiceRate(const OpenLoopResult& r) {
  return static_cast<double>(r.service_ms.size()) / BusySeconds(r);
}

}  // namespace

Report RunServe(const Options& options) {
  Serve serve(options);
  Report report;
  HostSpeed setup_host, host;
  const std::vector<double> setup_s =
      RunSetUps(setup_host, [&] { return serve.SetUp(); });

  if (!options.trace) {
    // Stretches of the fixed-rate open loop with a host probe after each.
    // ops_per_s is alarms per second of service time.
    OpenLoopResult r;
    for (int k = 0; k < kStretches; ++k) {
      Append(r, serve.OpenLoop(kRatePerS, options.seconds / kStretches,
                               nullptr));
      host.Probe();
    }
    report.attempted = serve.attempted();
    report.failed = serve.failed();
    AddEndToEnd(report, setup_host, setup_s, host, r.latency_ms,
                BusySeconds(r));
    return report;
  }

  // Traced run: half the time alternates untraced stretches (the overhead
  // baseline and the p99) with stretches under spans; the other half is
  // the max-rate search.
  auto& registry = dqsq::MetricsRegistry::Global();
  const auto* cache = serve.state().service->cache("plant");
  OpenLoopResult plain, traced;
  Tracer tracer;
  uint64_t hits = 0, misses = 0, restored = 0;
  for (int k = 0; k < 5; ++k) {
    Append(plain, serve.OpenLoop(kRatePerS, options.seconds / 20, nullptr));
    const uint64_t hits0 = cache->hits(), misses0 = cache->misses();
    const dqsq::MetricsSnapshot before = registry.Snapshot();
    Append(traced, serve.OpenLoop(kRatePerS, options.seconds / 20, &tracer));
    restored += registry.Snapshot().Diff(before).Total(
        "diag.service.sessions_restored");
    hits += cache->hits() - hits0;
    misses += cache->misses() - misses0;
  }
  const double max_rate = serve.MaxRate(options.seconds / 2);

  // Hibernate every resident session by hand, timing each; then read the
  // stored images back from the benchmark's store.
  auto& service = *serve.state().service;
  std::vector<double> hibernate_us;
  for (const std::string& name : serve.names()) {
    if (!service.is_resident(name)) continue;
    const uint64_t t0 = NowNs();
    DQSQ_CHECK_OK(service.Hibernate(name));
    hibernate_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  double image_bytes = 0;
  for (const std::string& name : serve.names()) {
    image_bytes += static_cast<double>(
        serve.state().store.Get("diag.session/" + name)->size());
  }
  // CreateShared on a model built from the registered net (the service's
  // own model is private).
  auto model = dqsq::diagnosis::OnlineModel::Build(serve.net());
  DQSQ_CHECK_OK(model.status());
  std::vector<double> create_us;
  for (int i = 0; i < 200; ++i) {
    const uint64_t t0 = NowNs();
    auto d = dqsq::diagnosis::OnlineDiagnoser::CreateShared(*model, {});
    create_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }

  report.attempted = serve.attempted();
  report.failed = serve.failed();
  const double p99 =
      RequirePercentile("serve.latency_p99_ms", plain.latency_ms, 0.99);
  const double late_p99 = RequirePercentile("serve.generator_late_p99_ms",
                                            traced.late_ms, 0.99);
  report.Add("diagnosis.service.restore_observe_us",
             Median(serve.restore_us()), "us");
  report.Add("diagnosis.service.resident_observe_us",
             Median(serve.resident_us()), "us");
  report.Add("diagnosis.online.create_shared_us", Median(create_us), "us");
  report.Add("diagnosis.service.hibernate_us", Median(hibernate_us), "us");
  report.Add("dist.snapshot.bytes_per_session",
             image_bytes / static_cast<double>(kSessions), "bytes");
  report.Add("datalog.subcache.hit_ratio",
             static_cast<double>(hits) / static_cast<double>(hits + misses),
             "ratio");
  report.Add("diag.service.sessions_restored", static_cast<double>(restored),
             "count");
  report.Add("serve.generator_late_p99_ms", late_p99, "ms");
  report.Add("serve.backlog_max", static_cast<double>(traced.backlog_max),
             "count");
  report.Add("serve.latency_p99_ms", p99, "ms");
  report.Add("serve.max_rate_per_s", max_rate, "alarms/s");
  const auto self = tracer.SelfTimeByName();
  const auto total = tracer.TotalTimeByName();
  report.Add("trace.unattributed_pct",
             100.0 * static_cast<double>(self.at("serve.op")) /
                 static_cast<double>(total.at("serve.op")),
             "%");
  report.Add("trace.overhead_pct",
             100.0 * (ServiceRate(plain) / ServiceRate(traced) - 1.0), "%");
  report.trace_json = tracer.ToChromeJson();
  return report;
}

}  // namespace perfbench
