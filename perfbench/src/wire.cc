// wire: closed loop, one client. The diagnosability dQSQ programs
// (verify.cc) of a fixed set of mid-size nets, run over real loopback
// TCP: one SocketNetwork per peer group (at most 4), all pumped from this
// thread, with the peers built from the cluster plumbing (ProgramPeers,
// InstallRuleAt, SeedDemandMessages, AnswerAtom). It is the only workload
// through wire_codec framing and socket_network; the verify layers measure
// the same programs on the simulated network, which isolates the
// transport's cost. The seed draws the op order of every pass.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "datalog/parser.h"
#include "diagnosis/diagnosability.h"
#include "dist/cluster.h"
#include "dist/dqsq.h"
#include "dist/socket_network.h"
#include "layers.h"
#include "perfbench.h"
#include "petri/verifier.h"
#include "trace.h"

namespace perfbench {

namespace {

using dqsq::dist::Cluster;

/// E6 nets whose dQSQ verdict takes 2-15 ms on the simulated cluster.
/// Fifteen, so that p50 and p90 of a pass fall mid-way through one
/// program's samples, not on the boundary between two programs.
constexpr uint64_t kNetSeeds[] = {2,  5,  8,  13, 15, 16, 17, 19,
                                  20, 21, 32, 39, 40, 45, 50};
constexpr size_t kGroups = 4;
constexpr Cluster::Mode kMode = Cluster::Mode::kSourceOnly;
constexpr uint64_t kOpTimeoutNs = 30'000'000'000;

/// A registered stand-in for whichever peer object the current op uses
/// under this name (SocketNetwork registrations are permanent).
class PeerSlot : public dqsq::dist::PeerNode {
 public:
  dqsq::dist::PeerNode* target = nullptr;
  dqsq::Status OnMessage(const dqsq::dist::Message& message,
                         dqsq::dist::Network& network) override {
    if (target == nullptr) {
      return dqsq::InternalError("message for a peer outside the current op");
    }
    return target->OnMessage(message, network);
  }
};

std::vector<std::string> Render(const std::vector<dqsq::Tuple>& answers,
                                const dqsq::DatalogContext& ctx) {
  std::vector<std::string> out;
  for (const dqsq::Tuple& t : answers) {
    out.push_back(ctx.arena().ToString(t[0], ctx.symbols()));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// One program's cluster over sockets: its own context (generated
/// relation names of different programs may clash), its sockets up, the
/// address books set and every connection dialed. Ops on the program reuse
/// it, so an op pays for no bring-up.
struct WireState {
  std::unique_ptr<dqsq::DatalogContext> ctx;
  dqsq::Program program;
  dqsq::ParsedQuery query;
  std::vector<std::unique_ptr<dqsq::dist::SocketNetwork>> nets;
  std::map<dqsq::SymbolId, std::unique_ptr<PeerSlot>> slots;
  std::map<dqsq::SymbolId, size_t> group;
};

/// Parses the program (input preparation, not timed), then brings the
/// sockets up; returns the state and adds the bring-up time to `seconds`.
std::unique_ptr<WireState> BringUp(
    const dqsq::diagnosis::VerifierProgramText& text, double& seconds) {
  auto st = std::make_unique<WireState>();
  st->ctx = std::make_unique<dqsq::DatalogContext>();
  auto program = dqsq::ParseProgram(text.program, *st->ctx);
  auto query = dqsq::ParseQuery(text.query, *st->ctx);
  DQSQ_CHECK_OK(program.status());
  DQSQ_CHECK_OK(query.status());
  st->program = *std::move(program);
  st->query = *std::move(query);
  std::vector<std::string> names = {"ds_root"};
  for (dqsq::SymbolId id : dqsq::dist::ProgramPeers(st->program, st->query)) {
    names.push_back(st->ctx->symbols().Name(id));
  }

  const uint64_t t0 = NowNs();
  const size_t groups = std::min(kGroups, names.size());
  size_t hellos = 0;
  for (size_t g = 0; g < groups; ++g) {
    st->nets.push_back(std::make_unique<dqsq::dist::SocketNetwork>(*st->ctx));
    DQSQ_CHECK_OK(st->nets.back()->Listen("127.0.0.1", 0));
    st->nets.back()->SetControlHandler(
        [&hellos](const dqsq::dist::Frame&, uint64_t) {
          ++hellos;
          return dqsq::Status::Ok();
        });
  }
  for (size_t k = 0; k < names.size(); ++k) {
    const dqsq::SymbolId id = st->ctx->symbols().Intern(names[k]);
    const size_t g = k % groups;
    st->group[id] = g;
    st->slots[id] = std::make_unique<PeerSlot>();
    st->nets[g]->Register(id, st->slots[id].get());
    for (size_t h = 0; h < groups; ++h) {
      if (h != g) {
        st->nets[h]->SetAddress(names[k],
                                {"127.0.0.1", st->nets[g]->listen_port()});
      }
    }
  }
  // Dial every directed pair now, so no op pays for a connect.
  for (size_t g = 0; g < groups; ++g) {
    for (size_t h = 0; h < groups; ++h) {
      if (g == h) continue;
      DQSQ_CHECK_OK(st->nets[g]->SendControl(
          {"127.0.0.1", st->nets[h]->listen_port()},
          dqsq::dist::FrameType::kHello, ""));
    }
  }
  const size_t want = groups * (groups - 1);
  const uint64_t deadline = NowNs() + kOpTimeoutNs;
  while (hellos < want && NowNs() < deadline) {
    for (auto& net : st->nets) DQSQ_CHECK_OK(net->Pump(0));
  }
  DQSQ_CHECK(hellos == want) << "socket bring-up timed out";
  for (auto& net : st->nets) {
    net->SetControlHandler([](const dqsq::dist::Frame&, uint64_t) {
      return dqsq::InvalidArgumentError("unexpected control frame");
    });
  }
  seconds += static_cast<double>(NowNs() - t0) / 1e9;
  return st;
}

struct Totals {
  size_t frames = 0;
  size_t bytes = 0;
  size_t messages = 0;
};

class Wire {
 public:
  Wire() {
    for (uint64_t s : kNetSeeds) {
      auto verifier =
          dqsq::petri::VerifierNet::Build(DiagnosabilitySweepNet(s));
      DQSQ_CHECK_OK(verifier.status());
      auto text = dqsq::diagnosis::BuildVerifierProgramText(*verifier);
      DQSQ_CHECK_OK(text.status());
      texts_.push_back(*text);
    }
    // Oracle: the same program's answers on the simulated network.
    for (size_t i = 0; i < texts_.size(); ++i) {
      const auto& text = texts_[i];
      dqsq::DatalogContext ctx;
      auto program = dqsq::ParseProgram(text.program, ctx);
      auto query = dqsq::ParseQuery(text.query, ctx);
      DQSQ_CHECK_OK(program.status());
      DQSQ_CHECK_OK(query.status());
      dqsq::dist::DistOptions o;
      o.seed = kNetSeeds[i];
      auto r = dqsq::dist::DistQsqSolve(ctx, *program, *query, o);
      DQSQ_CHECK_OK(r.status());
      expected_.push_back(Render(r->answers, ctx));
    }
  }

  size_t size() const { return texts_.size(); }
  const dqsq::diagnosis::VerifierProgramText& text(size_t i) const {
    return texts_[i];
  }

  /// Brings every program's sockets up; returns the bring-up time.
  double SetUp() {
    states_.clear();
    double seconds = 0;
    for (const auto& text : texts_) states_.push_back(BringUp(text, seconds));
    return seconds;
  }

  /// One dQSQ query over the sockets, compared with the oracle.
  bool Run(size_t i, Tracer* tracer = nullptr, uint64_t op = 0) {
    WireState& st = *states_[i];
    std::map<dqsq::SymbolId, std::unique_ptr<dqsq::dist::DatalogPeer>> peers;
    const dqsq::SymbolId root_id = st.ctx->symbols().Intern("ds_root");
    dqsq::dist::RootNode root(root_id);
    {
      Tracer::Scope s(tracer, "dist.wire.install", op);
      for (dqsq::SymbolId id : dqsq::dist::ProgramPeers(st.program, st.query)) {
        auto peer = std::make_unique<dqsq::dist::DatalogPeer>(
            id, st.ctx.get(), dqsq::EvalOptions());
        st.slots.at(id)->target = peer.get();
        peers.emplace(id, std::move(peer));
      }
      for (const dqsq::Rule& rule : st.program.rules) {
        dqsq::dist::InstallRuleAt(*peers.at(rule.head.rel.peer), rule, kMode,
                                  *st.ctx);
      }
      st.slots.at(root_id)->target = &root;
    }
    bool ok = true;
    std::vector<std::string> answers;
    {
      // Query to answers: seed, pump until termination, Ask.
      Tracer::Scope s(tracer, "dist.wire.run", op);
      dqsq::dist::SocketNetwork& home = *st.nets[st.group.at(root_id)];
      for (auto& m : dqsq::dist::SeedDemandMessages(*st.ctx, st.query,
                                                    root_id, kMode)) {
        root.SendBasic(std::move(m), home);
      }
      const uint64_t deadline = NowNs() + kOpTimeoutNs;
      while (ok && !root.terminated()) {
        for (auto& net : st.nets) ok = ok && net->Pump(0).ok();
        ok = ok && NowNs() < deadline;
      }
      if (ok) {
        answers = Render(
            dqsq::Ask(peers.at(st.query.atom.rel.peer)->db(),
                      dqsq::dist::AnswerAtom(*st.ctx, st.query, kMode),
                      st.query.num_vars),
            *st.ctx);
      }
    }
    {
      Tracer::Scope s(tracer, "dist.wire.teardown", op);
      for (auto& [id, slot] : st.slots) slot->target = nullptr;
      peers.clear();
    }
    return ok && answers == expected_[i];
  }

  Totals totals() const {
    Totals t;
    for (const auto& st : states_) {
      for (const auto& net : st->nets) {
        t.frames += net->stats().frames_sent;
        t.bytes += net->stats().bytes_sent;
        t.messages += net->stats().messages_delivered;
      }
    }
    return t;
  }

 private:
  std::vector<dqsq::diagnosis::VerifierProgramText> texts_;
  std::vector<std::vector<std::string>> expected_;
  std::vector<std::unique_ptr<WireState>> states_;
};

}  // namespace

Report RunWire(const Options& options) {
  dqsq::Rng rng(options.seed);
  Wire wire;
  const size_t n = wire.size();
  std::vector<bool> ok(n);
  auto run_op = [&](size_t i) { ok[i] = wire.Run(i); };
  auto check = [&](size_t i) { return static_cast<bool>(ok[i]); };

  Report report;
  // Set-up: socket bring-up plus one warm-up pass, kSetUps times.
  HostSpeed setup_host, host;
  const std::vector<double> setup_s = RunSetUps(setup_host, [&] {
    const double bring_up_s = wire.SetUp();
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) run_op(i);
    const double seconds =
        bring_up_s + static_cast<double>(NowNs() - t0) / 1e9;
    for (size_t i = 0; i < n; ++i) {
      ++report.attempted;
      if (!check(i)) ++report.failed;
    }
    return seconds;
  });

  if (!options.trace) {
    ClosedLoopResult loop =
        RunClosedLoop(n, options.seconds, rng, &host, run_op, check);
    report.attempted += loop.attempted;
    report.failed += loop.failed;
    AddEndToEnd(report, setup_host, setup_s, host, loop.latency_ms,
                loop.seconds);
    return report;
  }

  // Traced run: two untraced passes (overhead baseline, p99) alternate
  // with one under spans, until the p99 has its 1,000 samples; then each
  // program runs once more on the simulated network for over_sim, and the
  // verify layers are measured on the simulated cluster.
  Tracer tracer;
  uint64_t next_op = 0;
  Totals traced_totals;
  auto traced_op = [&](size_t i) {
    const Totals before = wire.totals();
    {
      Tracer::Scope op(&tracer, "wire.op", next_op);
      ok[i] = wire.Run(i, &tracer, next_op++);
    }
    const Totals after = wire.totals();
    traced_totals.frames += after.frames - before.frames;
    traced_totals.bytes += after.bytes - before.bytes;
    traced_totals.messages += after.messages - before.messages;
  };
  auto [plain, loop] = RunAlternating(n, options.seconds, 2, 1000, rng,
                                      run_op, check, traced_op, check);
  report.attempted += plain.attempted + loop.attempted;
  report.failed += plain.failed + loop.failed;
  const double ops = static_cast<double>(next_op);

  // over_sim: per program, median wire op minus median simulated op.
  double over_sim = 0;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> w, sim;
    for (int rep = 0; rep < 5; ++rep) {
      uint64_t t0 = NowNs();
      ok[i] = wire.Run(i);
      w.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      dqsq::DatalogContext ctx;
      auto program = dqsq::ParseProgram(wire.text(i).program, ctx);
      auto query = dqsq::ParseQuery(wire.text(i).query, ctx);
      t0 = NowNs();
      auto r = dqsq::dist::DistQsqSolve(ctx, *program, *query, {});
      sim.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      ++report.attempted;
      if (!ok[i] || !r.ok()) ++report.failed;
    }
    over_sim += Median(w) - Median(sim);
  }
  const double p99 =
      RequirePercentile("wire.latency_p99_ms", plain.latency_ms, 0.99);
  report.Add("dist.wire.bytes_per_msg",
             static_cast<double>(traced_totals.bytes) /
                 static_cast<double>(traced_totals.messages),
             "bytes");
  report.Add("dist.wire.frames",
             static_cast<double>(traced_totals.frames) / ops, "count");
  report.Add("dist.wire.over_sim_ms", over_sim / static_cast<double>(n), "ms");
  report.Add("wire.latency_p99_ms", p99, "ms");
  AddSpanTimes(report, tracer, "wire.op", ops);
  AddTraceChecks(report, tracer, "wire.op", Median(plain.pass_ops_per_s),
                 Median(loop.pass_ops_per_s));
  AddVerifyLayers(report, tracer);
  report.trace_json = tracer.ToChromeJson();
  return report;
}

}  // namespace perfbench
