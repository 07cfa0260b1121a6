#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "datalog/engine.h"
#include "dist/dnaive.h"
#include "dist/dqsq.h"
#include "dist/global.h"
#include "dist/network.h"
#include "dist/peer.h"
#include "tests/test_util.h"

namespace dqsq::dist {
namespace {

using ::dqsq::testing::AnswerStrings;

// The paper's Figure 3 distributed program.
const char* kFigure3 = R"(
  r@r(X, Y) :- a@r(X, Y).
  r@r(X, Y) :- s@s(X, Z), t@t(Z, Y).
  s@s(X, Y) :- r@r(X, Y), b@s(Y, Z).
  t@t(X, Y) :- c@t(X, Y).
  a@r("1", "2").
  a@r("2", "3").
  a@r("7", "8").
  b@s("2", "5").
  b@s("3", "6").
  c@t("2", "4").
  c@t("3", "9").
)";

struct Parsed {
  Program program;
  ParsedQuery query;
};

Parsed ParseAll(DatalogContext& ctx, const std::string& program_text,
                const std::string& query_text) {
  auto program = ParseProgram(program_text, ctx);
  DQSQ_CHECK_OK(program.status());
  auto query = ParseQuery(query_text, ctx);
  DQSQ_CHECK_OK(query.status());
  return Parsed{*std::move(program), *std::move(query)};
}

TEST(DistNaiveTest, Figure3MatchesCentralized) {
  DatalogContext ctx;
  Parsed p = ParseAll(ctx, kFigure3, "r@r(\"1\", Y)");

  Database db(&ctx);
  auto central = SolveQuery(p.program, db, p.query, Strategy::kSemiNaive);
  ASSERT_TRUE(central.ok());

  auto dist = DistNaiveSolve(ctx, p.program, p.query, DistOptions{});
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_EQ(AnswerStrings(dist->answers, ctx),
            AnswerStrings(central->answers, ctx));
  EXPECT_EQ(AnswerStrings(dist->answers, ctx),
            (std::vector<std::string>{"2", "4"}));
  EXPECT_EQ(dist->num_peers, 3u);
  EXPECT_GT(dist->net_stats.messages_delivered, 0u);
}

TEST(DistQsqTest, Figure3MatchesCentralizedQsq) {
  // Theorem 1: dQSQ computes the same facts as QSQ and the same answers.
  DatalogContext ctx;
  Parsed p = ParseAll(ctx, kFigure3, "r@r(\"1\", Y)");

  Database db(&ctx);
  auto central = SolveQuery(p.program, db, p.query, Strategy::kQsq);
  ASSERT_TRUE(central.ok());

  auto dist = DistQsqSolve(ctx, p.program, p.query, DistOptions{});
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_EQ(AnswerStrings(dist->answers, ctx),
            AnswerStrings(central->answers, ctx));
  EXPECT_EQ(AnswerStrings(dist->answers, ctx),
            (std::vector<std::string>{"2", "4"}));
}

TEST(DistQsqTest, Theorem1AdornedRelationsMatchCentralized) {
  // Theorem 1's bijection on adorned relations: the union over peers of
  // each adorned answer relation equals the centralized one.
  DatalogContext ctx_c;
  Parsed pc = ParseAll(ctx_c, kFigure3, "r@r(\"1\", Y)");
  Database db(&ctx_c);
  auto central = SolveQuery(pc.program, db, pc.query, Strategy::kQsq);
  ASSERT_TRUE(central.ok());

  DatalogContext ctx_d;
  Parsed pd = ParseAll(ctx_d, kFigure3, "r@r(\"1\", Y)");
  auto dist = DistQsqSolve(ctx_d, pd.program, pd.query, DistOptions{});
  ASSERT_TRUE(dist.ok());

  // Centralized adorned answers of the intensional relations. (The
  // centralized engine also adorns the fact-defined relations a/b/c —
  // facts are rules to it — while peers load them extensionally and join
  // directly; Theorem 1's bijection concerns the intensional relations.)
  size_t central_ans = 0;
  for (const char* rel : {"r__bf", "s__bf", "t__bf"}) {
    central_ans += CountRelationFacts(db, rel);
  }
  EXPECT_EQ(dist->answer_facts, central_ans);
}

TEST(DistTest, SeedsDoNotChangeResults) {
  // Arbitrary asynchrony must not affect the fixpoint (confluence of the
  // naive distributed evaluation, §3.1).
  std::vector<std::string> naive_expected, qsq_expected;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    DatalogContext ctx;
    Parsed p = ParseAll(ctx, kFigure3, "r@r(\"1\", Y)");
    DistOptions opts;
    opts.seed = seed;
    auto naive = DistNaiveSolve(ctx, p.program, p.query, opts);
    ASSERT_TRUE(naive.ok());
    auto qsq = DistQsqSolve(ctx, p.program, p.query, opts);
    ASSERT_TRUE(qsq.ok());
    auto ns = AnswerStrings(naive->answers, ctx);
    auto qs = AnswerStrings(qsq->answers, ctx);
    if (seed == 1) {
      naive_expected = ns;
      qsq_expected = qs;
    } else {
      EXPECT_EQ(ns, naive_expected) << "seed " << seed;
      EXPECT_EQ(qs, qsq_expected) << "seed " << seed;
    }
  }
}

TEST(DistQsqTest, MaterializesLessThanDistNaive) {
  // A distributed chain: peers p0..p3 each own a segment; the query binds
  // the start, so dQSQ only walks the demanded suffix.
  std::string program;
  const int kPeers = 4, kPerPeer = 8;
  for (int p = 0; p < kPeers; ++p) {
    for (int i = 0; i < kPerPeer; ++i) {
      int from = p * kPerPeer + i;
      int to = from + 1;
      program += "edge@peer" + std::to_string(p) + "(v" +
                 std::to_string(from) + ", v" + std::to_string(to) + ").\n";
    }
  }
  // path@peerP(X,Y) walks edges within the peer and hops to the next.
  for (int p = 0; p < kPeers; ++p) {
    std::string self = "peer" + std::to_string(p);
    program += "path@" + self + "(X, Y) :- edge@" + self + "(X, Y).\n";
    program += "path@" + self + "(X, Y) :- edge@" + self +
               "(X, Z), path@" + self + "(Z, Y).\n";
    if (p + 1 < kPeers) {
      std::string next = "peer" + std::to_string(p + 1);
      program += "path@" + self + "(X, Y) :- edge@" + self + "(X, Z), path@" +
                 next + "(Z, Y).\n";
      // Hop rule: the last edge of this peer continues at the next peer.
    }
  }
  DatalogContext ctx1;
  Parsed p1 = ParseAll(ctx1, program, "path@peer2(v20, Y)");
  auto naive = DistNaiveSolve(ctx1, p1.program, p1.query, DistOptions{});
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();

  DatalogContext ctx2;
  Parsed p2 = ParseAll(ctx2, program, "path@peer2(v20, Y)");
  auto qsq = DistQsqSolve(ctx2, p2.program, p2.query, DistOptions{});
  ASSERT_TRUE(qsq.ok()) << qsq.status().ToString();

  EXPECT_EQ(AnswerStrings(naive->answers, ctx1),
            AnswerStrings(qsq->answers, ctx2));
  EXPECT_FALSE(qsq->answers.empty());
  // Naive materializes every path fact of the activated sub-program; QSQ
  // only those reachable from v20.
  EXPECT_LT(qsq->answer_facts, naive->answer_facts);
  EXPECT_LT(qsq->net_stats.tuples_shipped, naive->net_stats.tuples_shipped);
}

TEST(DistMetricsTest, DqsqShipsFewerTuplesThanDistNaiveOnE3Chain) {
  // The E3 bench workload: a chain over 4 peers, demand bound at peer0 so
  // it spans every peer. Scope the process-wide registry to each run with
  // snapshot diffs, check the registry agrees with the per-run
  // NetworkStats view, and assert the paper's communication claim on the
  // tuple-shipping counter. (Total message counts are NOT lower for dQSQ:
  // subquery/install control traffic plus Dijkstra-Scholten acks outweigh
  // the saved data messages at this scale; the claim is about tuples.)
  const std::string program = bench::DistributedChainProgram(4, 16);
  const std::string query = "path@peer0(v0, Y)";
  auto& registry = MetricsRegistry::Global();

  DatalogContext ctx1;
  Parsed p1 = ParseAll(ctx1, program, query);
  MetricsSnapshot before_naive = registry.Snapshot();
  auto naive = DistNaiveSolve(ctx1, p1.program, p1.query, DistOptions{});
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  MetricsSnapshot naive_diff = registry.Snapshot().Diff(before_naive);

  DatalogContext ctx2;
  Parsed p2 = ParseAll(ctx2, program, query);
  MetricsSnapshot before_qsq = registry.Snapshot();
  auto qsq = DistQsqSolve(ctx2, p2.program, p2.query, DistOptions{});
  ASSERT_TRUE(qsq.ok()) << qsq.status().ToString();
  MetricsSnapshot qsq_diff = registry.Snapshot().Diff(before_qsq);

  EXPECT_EQ(AnswerStrings(naive->answers, ctx1),
            AnswerStrings(qsq->answers, ctx2));

  // The registry's counters are the NetworkStats numbers.
  EXPECT_EQ(naive_diff.Value("dist.net.tuples_shipped"),
            naive->net_stats.tuples_shipped);
  EXPECT_EQ(qsq_diff.Value("dist.net.tuples_shipped"),
            qsq->net_stats.tuples_shipped);
  EXPECT_EQ(naive_diff.Total("dist.net.messages_delivered"),
            naive->net_stats.messages_delivered);
  EXPECT_EQ(qsq_diff.Total("dist.net.messages_delivered"),
            qsq->net_stats.messages_delivered);
  EXPECT_EQ(naive_diff.Total("dist.net.channel_messages"),
            naive->net_stats.messages_delivered);

  // dQSQ ships strictly fewer tuples than distributed naive.
  EXPECT_LT(qsq_diff.Value("dist.net.tuples_shipped"),
            naive_diff.Value("dist.net.tuples_shipped"));

  // Per-engine accounting fired exactly once per run.
  EXPECT_EQ(naive_diff.Value("dist.solve.queries", {{"engine", "dnaive"}}),
            1u);
  EXPECT_EQ(qsq_diff.Value("dist.solve.queries", {{"engine", "dqsq"}}), 1u);
  // One subquery message per peer along the demand chain (at least).
  EXPECT_GE(qsq_diff.Total("dist.peer.subqueries_received"), 4u);
}

TEST(DistTest, GlobalProgramSemanticsMatch) {
  // The distributed result equals evaluating P^g centrally (the paper's
  // definition of dDatalog semantics).
  DatalogContext ctx;
  Parsed p = ParseAll(ctx, kFigure3, "r@r(\"1\", Y)");
  auto global = GlobalProgram(p.program, ctx);
  ASSERT_TRUE(global.ok());
  auto gquery = GlobalQuery(p.query, ctx);
  ASSERT_TRUE(gquery.ok());
  Database db(&ctx);
  auto central = SolveQuery(*global, db, *gquery, Strategy::kSemiNaive);
  ASSERT_TRUE(central.ok());

  auto dist = DistNaiveSolve(ctx, p.program, p.query, DistOptions{});
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(AnswerStrings(dist->answers, ctx),
            AnswerStrings(central->answers, ctx));
}

TEST(DistTest, FunctionSymbolsAcrossPeers) {
  DatalogContext ctx;
  Parsed p = ParseAll(ctx, R"(
    base@a(c1).
    wrap@b(f(X)) :- base@a(X).
    deep@c(g(Y)) :- wrap@b(Y).
  )",
                      "deep@c(W)");
  auto naive = DistNaiveSolve(ctx, p.program, p.query, DistOptions{});
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(AnswerStrings(naive->answers, ctx),
            (std::vector<std::string>{"g(f(c1))"}));

  DatalogContext ctx2;
  Parsed p2 = ParseAll(ctx2, R"(
    base@a(c1).
    wrap@b(f(X)) :- base@a(X).
    deep@c(g(Y)) :- wrap@b(Y).
  )",
                       "deep@c(W)");
  auto qsq = DistQsqSolve(ctx2, p2.program, p2.query, DistOptions{});
  ASSERT_TRUE(qsq.ok()) << qsq.status().ToString();
  EXPECT_EQ(AnswerStrings(qsq->answers, ctx2),
            (std::vector<std::string>{"g(f(c1))"}));
}

TEST(DistTest, DisequalitiesAcrossPeers) {
  const char* program = R"(
    node@a(x). node@a(y).
    other@b(x). other@b(y).
    pair@a(X, Y) :- node@a(X), other@b(Y), X != Y.
  )";
  DatalogContext ctx;
  Parsed p = ParseAll(ctx, program, "pair@a(U, V)");
  auto naive = DistNaiveSolve(ctx, p.program, p.query, DistOptions{});
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(AnswerStrings(naive->answers, ctx),
            (std::vector<std::string>{"x,y", "y,x"}));

  DatalogContext ctx2;
  Parsed p2 = ParseAll(ctx2, program, "pair@a(U, V)");
  auto qsq = DistQsqSolve(ctx2, p2.program, p2.query, DistOptions{});
  ASSERT_TRUE(qsq.ok()) << qsq.status().ToString();
  EXPECT_EQ(AnswerStrings(qsq->answers, ctx2),
            (std::vector<std::string>{"x,y", "y,x"}));
}

TEST(DistTest, DijkstraScholtenDrivesTermination) {
  // The drivers stop when the root's DS detection fires;
  // RunUntilTermination verifies quiescence at that instant and fails
  // otherwise — so a passing run IS the safety check. Message counts
  // include the acknowledgments (>= one per basic message).
  DatalogContext ctx;
  Parsed p = ParseAll(ctx, kFigure3, "r@r(\"1\", Y)");
  auto dist = DistQsqSolve(ctx, p.program, p.query, DistOptions{});
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  // Basic messages (tuples + control minus acks) are each acked once.
  size_t basic = dist->net_stats.messages_delivered / 2;
  EXPECT_GE(dist->net_stats.messages_delivered, 2 * basic);
  EXPECT_GT(basic, 0u);
}

// ---------------------------------------------------------------------------
// A DatalogPeer compiles its program once and reuses it across fixpoints.
// The compiled program points into the peer's rules, so every change to
// them must drop it: each test below fails if InstallRule, or RestoreState
// (through Crash), kept a stale one.
// ---------------------------------------------------------------------------

const char* kPeerFacts = R"(
  e@p("1", "2").
  e@p("2", "3").
  e@p("3", "4").
)";
const char* kPeerBaseRule = "path@p(X, Y) :- e@p(X, Y).";
const char* kPeerStepRule = "path@p(X, Z) :- path@p(X, Y), e@p(Y, Z).";

void InstallText(DatalogPeer& peer, DatalogContext& ctx,
                 const std::string& text) {
  auto program = ParseProgram(text, ctx);
  DQSQ_CHECK_OK(program.status());
  for (const Rule& rule : program->rules) peer.InstallRule(rule);
}

// `rules` installed at once, then one fixpoint: the reference state.
std::string FreshPeerDump(const std::string& rules) {
  DatalogContext ctx;
  SymbolId p = ctx.InternPeer("p");
  DatalogPeer peer(p, &ctx, EvalOptions{});
  SimNetwork network(/*seed=*/1);
  network.Register(p, &peer);
  InstallText(peer, ctx, rules);
  DQSQ_CHECK_OK(peer.RunFixpointAndFlush(network));
  return peer.db().Dump();
}

TEST(DistPeerCompiledProgramTest, RuleInstalledAfterAFixpointTakesPart) {
  DatalogContext ctx;
  SymbolId p = ctx.InternPeer("p");
  DatalogPeer peer(p, &ctx, EvalOptions{});
  SimNetwork network(/*seed=*/1);
  network.Register(p, &peer);
  InstallText(peer, ctx, std::string(kPeerFacts) + kPeerBaseRule);
  ASSERT_TRUE(peer.RunFixpointAndFlush(network).ok());
  EXPECT_EQ(peer.db().Dump(),
            FreshPeerDump(std::string(kPeerFacts) + kPeerBaseRule));

  // The recursive rule arrives later (as a dQSQ kInstall does): the next
  // fixpoint must evaluate it.
  InstallText(peer, ctx, kPeerStepRule);
  ASSERT_TRUE(peer.RunFixpointAndFlush(network).ok());
  EXPECT_EQ(peer.db().Dump(), FreshPeerDump(std::string(kPeerFacts) +
                                            kPeerBaseRule + kPeerStepRule));
  EXPECT_NE(peer.db().Dump().find("path@p(1,4)"), std::string::npos);
}

TEST(DistPeerCompiledProgramTest, RestoreIntoAWarmPeerEvaluatesTheRestoredRules) {
  DatalogContext ctx;
  SymbolId p = ctx.InternPeer("p");
  // The image: a peer with the full recursive program, before its first
  // fixpoint.
  DatalogPeer source(p, &ctx, EvalOptions{});
  InstallText(source, ctx,
              std::string(kPeerFacts) + kPeerBaseRule + kPeerStepRule);
  const std::string image = source.SaveState();

  // A peer that already ran a different (shorter) program to fixpoint,
  // so its compiled program is warm, restores the image and re-runs.
  DatalogPeer peer(p, &ctx, EvalOptions{});
  SimNetwork network(/*seed=*/1);
  network.Register(p, &peer);
  InstallText(peer, ctx, "q@p(\"9\").\n");
  ASSERT_TRUE(peer.RunFixpointAndFlush(network).ok());
  peer.RestoreState(image);
  EXPECT_EQ(peer.num_installed_rules(), 5u);
  ASSERT_TRUE(peer.RunFixpointAndFlush(network).ok());
  EXPECT_EQ(peer.db().Dump(), FreshPeerDump(std::string(kPeerFacts) +
                                            kPeerBaseRule + kPeerStepRule));
}

}  // namespace
}  // namespace dqsq::dist
