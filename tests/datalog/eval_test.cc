#include "datalog/eval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "datalog/engine.h"
#include "datalog/parser.h"
#include "tests/test_util.h"

namespace dqsq {
namespace {

using ::dqsq::testing::AnswerStrings;
using ::dqsq::testing::RunQueryStrings;

const char* kTransitiveClosure = R"(
  edge(a, b).
  edge(b, c).
  edge(c, d).
  edge(b, e).
  path(X, Y) :- edge(X, Y).
  path(X, Y) :- edge(X, Z), path(Z, Y).
)";

TEST(EvalTest, TransitiveClosureNaive) {
  DatalogContext ctx;
  auto answers =
      RunQueryStrings(ctx, kTransitiveClosure, "path(a, Y)", Strategy::kNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"b", "c", "d", "e"}));
}

TEST(EvalTest, TransitiveClosureSemiNaive) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, kTransitiveClosure, "path(a, Y)",
                                 Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"b", "c", "d", "e"}));
}

TEST(EvalTest, SemiNaiveDerivesSameFactsAsNaive) {
  DatalogContext ctx;
  auto program = ParseProgram(kTransitiveClosure, ctx);
  ASSERT_TRUE(program.ok());
  Database naive_db(&ctx);
  Database semi_db(&ctx);
  EvalOptions naive_opts;
  naive_opts.seminaive = false;
  EvalOptions semi_opts;
  ASSERT_TRUE(Evaluate(*program, naive_db, naive_opts).ok());
  ASSERT_TRUE(Evaluate(*program, semi_db, semi_opts).ok());
  EXPECT_EQ(naive_db.Dump(), semi_db.Dump());
  EXPECT_EQ(naive_db.TotalFacts(), semi_db.TotalFacts());
}

TEST(EvalTest, CyclicGraphTerminates) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    edge(a, b). edge(b, c). edge(c, a).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
  )",
                                 "path(a, Y)", Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(EvalTest, DisequalityFiltersDerivations) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    node(a). node(b). node(c).
    pair(X, Y) :- node(X), node(Y), X != Y.
  )",
                                 "pair(X, Y)", Strategy::kSemiNaive);
  EXPECT_EQ(answers.size(), 6u);  // 3*3 minus the 3 diagonal pairs
  for (const std::string& s : answers) {
    EXPECT_NE(s, "a,a");
    EXPECT_NE(s, "b,b");
    EXPECT_NE(s, "c,c");
  }
}

TEST(EvalTest, DisequalityAgainstConstant) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    node(a). node(b).
    notb(X) :- node(X), X != b.
  )",
                                 "notb(X)", Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"a"}));
}

TEST(EvalTest, FunctionSymbolsConstructTerms) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    base(a).
    wrapped(f(X)) :- base(X).
    double(g(X, X)) :- base(X).
  )",
                                 "wrapped(W)", Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"f(a)"}));
}

TEST(EvalTest, FunctionSymbolsDecomposeInBodies) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    cell(f(a, b)).
    cell(f(c, d)).
    left(X) :- cell(f(X, Y)).
  )",
                                 "left(X)", Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"a", "c"}));
}

TEST(EvalTest, InfiniteProgramHitsDepthBudget) {
  DatalogContext ctx;
  auto program = ParseProgram(R"(
    n(z).
    n(s(X)) :- n(X).
  )",
                              ctx);
  ASSERT_TRUE(program.ok());
  Database db(&ctx);
  EvalOptions opts;
  opts.max_term_depth = 5;
  opts.depth_policy = EvalOptions::DepthPolicy::kPrune;
  auto stats = Evaluate(*program, db, opts);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // z, s(z), ..., s^4(z): depth cap 5 keeps exactly 5 numerals.
  PredicateId n;
  ASSERT_TRUE(ctx.LookupPredicate("n", &n));
  EXPECT_EQ(db.Find(RelId{n, ctx.local_peer()})->size(), 5u);
  EXPECT_GT(stats->depth_pruned, 0u);
}

TEST(EvalTest, InfiniteProgramErrorsUnderErrorPolicy) {
  DatalogContext ctx;
  auto program = ParseProgram(R"(
    n(z).
    n(s(X)) :- n(X).
  )",
                              ctx);
  ASSERT_TRUE(program.ok());
  Database db(&ctx);
  EvalOptions opts;
  opts.max_term_depth = 5;
  opts.depth_policy = EvalOptions::DepthPolicy::kError;
  auto stats = Evaluate(*program, db, opts);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalTest, MaxFactsBudgetStopsRunaway) {
  DatalogContext ctx;
  auto program = ParseProgram(R"(
    n(z).
    n(s(X)) :- n(X).
  )",
                              ctx);
  ASSERT_TRUE(program.ok());
  Database db(&ctx);
  EvalOptions opts;
  opts.max_facts = 100;
  auto stats = Evaluate(*program, db, opts);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalTest, EmptyProgramIsFixpointImmediately) {
  DatalogContext ctx;
  Program program;
  Database db(&ctx);
  auto stats = Evaluate(program, db, EvalOptions{});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->facts_derived, 0u);
}

TEST(EvalTest, MutualRecursionAcrossRelations) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    succ(n0, n1). succ(n1, n2). succ(n2, n3). succ(n3, n4).
    even(n0).
    odd(X) :- succ(Y, X), even(Y).
    even(X) :- succ(Y, X), odd(Y).
  )",
                                 "even(X)", Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"n0", "n2", "n4"}));
}

TEST(EvalTest, DistributedFactsKeyedByPeer) {
  DatalogContext ctx;
  // The same predicate at different peers holds different facts (global
  // program semantics P^g: the peer is an extra column).
  auto answers = RunQueryStrings(ctx, R"(
    stock@paris(wine).
    stock@rome(pasta).
    menu(X) :- stock@paris(X).
  )",
                                 "menu(X)", Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"wine"}));
}

TEST(EvalTest, AskOnGroundQueryChecksMembership) {
  DatalogContext ctx;
  auto program = ParseProgram("edge(a, b).", ctx);
  ASSERT_TRUE(program.ok());
  Database db(&ctx);
  ASSERT_TRUE(Evaluate(*program, db, EvalOptions{}).ok());
  auto yes = ParseQuery("edge(a, b)", ctx);
  auto no = ParseQuery("edge(b, a)", ctx);
  ASSERT_TRUE(yes.ok() && no.ok());
  EXPECT_EQ(Ask(db, yes->atom, yes->num_vars).size(), 1u);
  EXPECT_EQ(Ask(db, no->atom, no->num_vars).size(), 0u);
}

// One EDB batch: (predicate, constants) rows inserted before a run.
using Batch = std::vector<std::pair<std::string, std::vector<std::string>>>;

// A compiled program reused across runs, each after new EDB rows arrive
// (as a dQSQ peer re-runs its program on every delivery), must match a
// one-shot Evaluate over the same database history on every call: same
// facts and same counters. Derived facts are never retracted, so under
// negation both sides hold the same non-minimal database; the comparison
// is between the two paths, not against a model.
void ExpectReuseMatchesOneShot(const char* program_text,
                               const std::vector<Batch>& batches,
                               bool seminaive) {
  DatalogContext ctx;
  auto program = ParseProgram(program_text, ctx);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto compiled = CompiledProgram::Compile(*program, ctx);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->num_rules(), program->rules.size());
  Database reused_db(&ctx);
  Database one_shot_db(&ctx);
  EvalOptions options;
  options.seminaive = seminaive;
  for (size_t step = 0; step < batches.size(); ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    for (const auto& [pred, constants] : batches[step]) {
      reused_db.InsertByName(pred, constants);
      one_shot_db.InsertByName(pred, constants);
    }
    auto reused = Evaluate(*compiled, reused_db, options);
    auto one_shot = Evaluate(*program, one_shot_db, options);
    ASSERT_TRUE(reused.ok()) << reused.status().ToString();
    ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
    EXPECT_EQ(reused_db.Dump(), one_shot_db.Dump());
    EXPECT_EQ(reused->rounds, one_shot->rounds);
    EXPECT_EQ(reused->facts_derived, one_shot->facts_derived);
    EXPECT_EQ(reused->rule_firings, one_shot->rule_firings);
    EXPECT_EQ(reused->join_probes, one_shot->join_probes);
    EXPECT_EQ(reused->depth_pruned, one_shot->depth_pruned);
  }
}

TEST(EvalTest, CompiledProgramReusedAcrossGrowingEdbMatchesOneShot) {
  const std::vector<Batch> batches = {
      {{"edge", {"a", "b"}}, {"edge", {"b", "c"}}},
      {},  // nothing new: the re-run derives nothing
      {{"edge", {"c", "d"}}, {"edge", {"x", "y"}}},
      {{"edge", {"d", "a"}}},  // closes a cycle
      {{"edge", {"y", "a"}}},
  };
  for (bool seminaive : {true, false}) {
    SCOPED_TRACE(seminaive ? "seminaive" : "naive");
    ExpectReuseMatchesOneShot(R"(
      path(X, Y) :- edge(X, Y).
      path(X, Y) :- path(X, Z), edge(Z, Y).
      hub(X) :- path(X, Y), path(Y, X), edge(X, Z).
    )",
                              batches, seminaive);
  }
}

TEST(EvalTest, CompiledThreeStrataNegationReusedMatchesOneShot) {
  // reach: stratum 0; unreach and cut: stratum 1; connected: stratum 2.
  const char* program = R"(
    reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- reach(X, Z), edge(Z, Y).
    unreach(X, Y) :- node(X), node(Y), not reach(X, Y), X != Y.
    cut(X) :- unreach(X, Y).
    cut(Y) :- unreach(X, Y), cut(X).
    connected(X) :- node(X), not cut(X).
  )";
  const std::vector<Batch> batches = {
      {{"node", {"a"}}, {"node", {"b"}}, {"node", {"c"}}},
      {{"edge", {"a", "b"}}},
      {{"edge", {"b", "a"}}, {"node", {"d"}}},
      {},
      {{"edge", {"c", "d"}}, {"edge", {"d", "c"}}, {"edge", {"b", "c"}}},
  };
  for (bool seminaive : {true, false}) {
    SCOPED_TRACE(seminaive ? "seminaive" : "naive");
    ExpectReuseMatchesOneShot(program, batches, seminaive);
  }
  // The strata really are three: connected reads cut negatively, and
  // unreach reads reach negatively.
  DatalogContext ctx;
  auto parsed = ParseProgram(program, ctx);
  ASSERT_TRUE(parsed.ok());
  auto strata = StratifyProgram(*parsed, ctx);
  ASSERT_TRUE(strata.ok());
  EXPECT_EQ(*std::max_element(strata->begin(), strata->end()), 2u);
}

TEST(EvalTest, CompileRejectsUnstratifiableProgram) {
  DatalogContext ctx;
  auto program = ParseProgram(R"(
    move(a, b).
    win(X) :- move(X, Y), not win(Y).
  )",
                              ctx);
  ASSERT_TRUE(program.ok());
  auto compiled = CompiledProgram::Compile(*program, ctx);
  EXPECT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dqsq
