#include "diagnosis/online.h"

#include <gtest/gtest.h>

#include "diagnosis/diagnoser.h"
#include "petri/examples.h"

namespace dqsq::diagnosis {
namespace {

std::vector<Explanation> Batch(const petri::PetriNet& net,
                               const petri::AlarmSequence& alarms) {
  DiagnosisOptions opts;
  opts.engine = DiagnosisEngine::kCentralQsq;
  auto result = Diagnose(net, alarms, opts);
  DQSQ_CHECK_OK(result.status());
  return result->explanations;
}

TEST(OnlineDiagnoserTest, MatchesBatchOnEveryPrefix) {
  petri::PetriNet net = petri::MakePaperNet();
  petri::AlarmSequence alarms = petri::MakeAlarms(
      {{"b", "p1"}, {"a", "p2"}, {"c", "p1"}});
  auto online = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(online.ok()) << online.status().ToString();

  // Empty prefix.
  auto current = online->Current();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, Batch(net, {}));

  petri::AlarmSequence prefix;
  for (const petri::Alarm& alarm : alarms) {
    prefix.push_back(alarm);
    auto result = online->Observe(alarm);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, Batch(net, prefix))
        << "prefix " << petri::AlarmSequenceToString(prefix);
  }
  EXPECT_EQ(online->num_observed(), 3u);
}

TEST(OnlineDiagnoserTest, PrefixWithNoExplanationThenNothingLater) {
  petri::PetriNet net = petri::MakePaperNet();
  auto online = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(online.ok());
  // (c,p1) first: c needs place 2, never marked initially.
  auto r1 = online->Observe({"c", "p1"});
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->empty());
  auto r2 = online->Observe({"b", "p1"});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->empty());
}

TEST(OnlineDiagnoserTest, IncrementalStepsReuseMaterialization) {
  // The final step's incremental delta is smaller than what a from-scratch
  // batch run of the same prefix derives in total: the unfolding fragment
  // and cfgp prefixes materialized at earlier steps are reused.
  petri::PetriNet net = petri::MakePaperNet(/*with_loop=*/true);
  petri::AlarmSequence prefix = petri::MakeAlarms(
      {{"a", "p2"}, {"c", "p2"}, {"a", "p2"}});
  auto online = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(online.ok());
  for (const petri::Alarm& alarm : prefix) {
    ASSERT_TRUE(online->Observe(alarm).ok());
  }
  size_t last_delta = online->last_step_new_facts();
  EXPECT_GT(last_delta, 0u);

  DiagnosisOptions opts;
  opts.engine = DiagnosisEngine::kCentralQsq;
  auto fresh = Diagnose(net, prefix, opts);
  ASSERT_TRUE(fresh.ok());
  EXPECT_LT(last_delta, fresh->total_facts);
}

TEST(OnlineDiagnoserTest, UnknownPeerRejected) {
  petri::PetriNet net = petri::MakePaperNet();
  auto online = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(online.ok());
  auto result = online->Observe({"a", "nope"});
  EXPECT_FALSE(result.ok());
}

TEST(OnlineDiagnoserTest, CurrentIsCachedBetweenObserves) {
  petri::PetriNet net = petri::MakePaperNet();
  auto online = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(online.ok());
  ASSERT_TRUE(online->Observe({"b", "p1"}).ok());
  size_t facts = online->total_facts();
  auto again = online->Current();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(online->total_facts(), facts);  // no re-evaluation
}

TEST(OnlineDiagnoserTest, InterleavedPeersMatchBatch) {
  petri::PetriNet net = petri::MakePaperNet(/*with_loop=*/true);
  petri::AlarmSequence alarms = petri::MakeAlarms(
      {{"a", "p2"}, {"b", "p1"}, {"c", "p2"}, {"a", "p2"}});
  auto online = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(online.ok());
  petri::AlarmSequence prefix;
  for (const petri::Alarm& alarm : alarms) {
    prefix.push_back(alarm);
    auto result = online->Observe(alarm);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, Batch(net, prefix))
        << petri::AlarmSequenceToString(prefix);
  }
}

TEST(OnlineDiagnoserTest, ProgramKeepsAtMostOneQueryRule) {
  // Regression pin for the query-rule pruning fix: the program holds the
  // base rules, one chain-edge fact per observed alarm and at most one
  // versioned query rule — superseded q_<i> rules must not accumulate.
  petri::PetriNet net = petri::MakePaperNet();
  auto online = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(online.ok());
  const size_t base = online->base_rules();
  EXPECT_EQ(online->num_rules(), base);

  // Current() on the empty prefix emits q_0 exactly once.
  ASSERT_TRUE(online->Current().ok());
  EXPECT_EQ(online->num_rules(), base + 1);
  ASSERT_TRUE(online->Current().ok());
  EXPECT_EQ(online->num_rules(), base + 1);

  petri::AlarmSequence alarms =
      petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}, {"c", "p1"}});
  size_t observed = 0;
  for (const petri::Alarm& alarm : alarms) {
    ASSERT_TRUE(online->Observe(alarm).ok());
    ++observed;
    EXPECT_EQ(online->num_rules(), base + observed + 1)
        << "after " << observed << " alarms";
  }
}

TEST(OnlineDiagnoserTest, FailedObserveRollsBackAndRetrySucceeds) {
  // Regression for the transactional-Observe fix: a budget-failed Observe
  // must leave no trace (no chain edge, no counter bump, no query rule),
  // and retrying the same alarm after raising the budget must succeed with
  // the same answers a fresh diagnoser computes.
  petri::PetriNet net = petri::MakePaperNet();
  OnlineOptions tiny;
  tiny.max_facts = 1;
  auto online = OnlineDiagnoser::Create(net, tiny);
  ASSERT_TRUE(online.ok());
  const size_t base = online->num_rules();

  auto fail1 = online->Observe({"b", "p1"});
  ASSERT_FALSE(fail1.ok());
  EXPECT_EQ(online->num_observed(), 0u);
  EXPECT_EQ(online->num_rules(), base);

  // The retry is idempotent: same failure, still no duplicated edge.
  auto fail2 = online->Observe({"b", "p1"});
  ASSERT_FALSE(fail2.ok());
  EXPECT_EQ(online->num_observed(), 0u);
  EXPECT_EQ(online->num_rules(), base);

  online->set_max_facts(5'000'000);
  auto ok = online->Observe({"b", "p1"});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok, Batch(net, petri::MakeAlarms({{"b", "p1"}})));
  EXPECT_EQ(online->num_observed(), 1u);
  EXPECT_EQ(online->num_rules(), base + 1 + 1);  // one edge + one query rule
}

TEST(OnlineDiagnoserTest, FailedCurrentRetryDoesNotDuplicateQueryRules) {
  petri::PetriNet net = petri::MakePaperNet();
  OnlineOptions tiny;
  tiny.max_facts = 1;
  auto online = OnlineDiagnoser::Create(net, tiny);
  ASSERT_TRUE(online.ok());
  const size_t base = online->num_rules();

  ASSERT_FALSE(online->Current().ok());
  EXPECT_EQ(online->num_rules(), base);
  ASSERT_FALSE(online->Current().ok());
  EXPECT_EQ(online->num_rules(), base);

  online->set_max_facts(5'000'000);
  auto ok = online->Current();
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, Batch(net, {}));
  EXPECT_EQ(online->num_rules(), base + 1);
}

TEST(OnlineDiagnoserTest, SharedModelSessionsMatchIsolatedOnes) {
  // Two sessions over one OnlineModel share the term arena and symbol
  // table; their answers must equal a session with a private context.
  petri::PetriNet net = petri::MakePaperNet(/*with_loop=*/true);
  auto model = OnlineModel::Build(net);
  ASSERT_TRUE(model.ok());
  OnlineDiagnoser a = OnlineDiagnoser::CreateShared(*model, OnlineOptions{});
  OnlineDiagnoser b = OnlineDiagnoser::CreateShared(*model, OnlineOptions{});
  auto isolated = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(isolated.ok());

  petri::AlarmSequence alarms =
      petri::MakeAlarms({{"a", "p2"}, {"b", "p1"}, {"c", "p2"}});
  for (const petri::Alarm& alarm : alarms) {
    auto ra = a.Observe(alarm);
    auto rb = b.Observe(alarm);
    auto ri = isolated->Observe(alarm);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    ASSERT_TRUE(ri.ok());
    EXPECT_EQ(*ra, *ri);
    EXPECT_EQ(*rb, *ri);
  }
}

TEST(OnlineDiagnoserTest, ObserveCachedMatchesEvaluatedAnswers) {
  // ObserveCached advances the session without evaluating; a later cache
  // miss (here: Observe of a fresh alarm) must still produce the same
  // answers as a session that evaluated every step.
  petri::PetriNet net = petri::MakePaperNet();
  auto evaluated = OnlineDiagnoser::Create(net, OnlineOptions{});
  auto skipping = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(evaluated.ok());
  ASSERT_TRUE(skipping.ok());

  auto step1 = evaluated->Observe({"b", "p1"});
  ASSERT_TRUE(step1.ok());
  ASSERT_TRUE(skipping->ObserveCached({"b", "p1"}, *step1).ok());
  auto cached = skipping->Current();
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*cached, *step1);
  EXPECT_EQ(skipping->last_step_new_facts(), 0u);  // nothing evaluated

  auto step2 = evaluated->Observe({"a", "p2"});
  auto fresh2 = skipping->Observe({"a", "p2"});
  ASSERT_TRUE(step2.ok());
  ASSERT_TRUE(fresh2.ok());
  EXPECT_EQ(*fresh2, *step2);
}

TEST(OnlineDiagnoserTest, CreateSharedSharesTheBaseProgram) {
  // A session is a cursor over the model: it holds the model's base
  // program by pointer, so opening one copies no rule and builds no
  // Database, and evaluating in one leaves the shared program untouched.
  petri::PetriNet net = petri::MakePaperNet();
  auto model = OnlineModel::Build(net);
  ASSERT_TRUE(model.ok());
  const Program* base = model->base_program.get();
  const size_t base_size = base->rules.size();
  const long users = model->base_program.use_count();

  OnlineDiagnoser a = OnlineDiagnoser::CreateShared(*model, OnlineOptions{});
  OnlineDiagnoser b = OnlineDiagnoser::CreateShared(*model, OnlineOptions{});
  EXPECT_EQ(model->base_program.use_count(), users + 2);
  EXPECT_EQ(model->base_program.get(), base);
  EXPECT_EQ(a.base_rules(), base_size);
  EXPECT_EQ(a.num_rules(), base_size);
  EXPECT_EQ(a.total_facts(), 0u);

  ASSERT_TRUE(a.Observe({"b", "p1"}).ok());
  EXPECT_GT(a.total_facts(), 0u);
  EXPECT_EQ(base->rules.size(), base_size);
  EXPECT_EQ(b.total_facts(), 0u);  // b's evaluation state is its own
}

TEST(OnlineDiagnoserTest, CacheHitOnlySessionHoldsNoDatabase) {
  // A session advanced only through ObserveCached keeps its chain edges as
  // data: no Database, and num_rules() counts base + edges. The first
  // evaluation then builds exactly the program an evaluating session has.
  petri::PetriNet net = petri::MakePaperNet(/*with_loop=*/true);
  petri::AlarmSequence alarms = petri::MakeAlarms(
      {{"a", "p2"}, {"b", "p1"}, {"c", "p2"}, {"a", "p2"}});
  auto evaluated = OnlineDiagnoser::Create(net, OnlineOptions{});
  auto cursor = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(evaluated.ok());
  ASSERT_TRUE(cursor.ok());
  const size_t base = cursor->base_rules();

  for (size_t i = 0; i + 1 < alarms.size(); ++i) {
    auto answer = evaluated->Observe(alarms[i]);
    ASSERT_TRUE(answer.ok());
    ASSERT_TRUE(cursor->ObserveCached(alarms[i], *answer).ok());
    EXPECT_EQ(cursor->total_facts(), 0u);
    EXPECT_EQ(cursor->num_rules(), base + i + 1);
  }
  ASSERT_TRUE(cursor->Current().ok());  // cached: still nothing evaluated
  EXPECT_EQ(cursor->total_facts(), 0u);

  auto expected = evaluated->Observe(alarms.back());
  auto first_miss = cursor->Observe(alarms.back());
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(first_miss.ok()) << first_miss.status().ToString();
  EXPECT_EQ(*first_miss, *expected);
  EXPECT_EQ(*first_miss, Batch(net, alarms));
  EXPECT_GT(cursor->total_facts(), 0u);
  EXPECT_EQ(cursor->num_rules(), evaluated->num_rules());
  EXPECT_EQ(cursor->num_rules(), base + alarms.size() + 1);
}

TEST(OnlineDiagnoserTest, FirstMissAfterReplayFailsCleanlyThenRetries) {
  // A restored session (history replayed through ApplyObservationOnly)
  // whose first evaluation fails on budget must roll back to the replayed
  // state, and the retry must give the answers of a fresh diagnoser.
  petri::PetriNet net = petri::MakePaperNet();
  petri::AlarmSequence alarms =
      petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}, {"c", "p1"}});
  OnlineOptions tiny;
  tiny.max_facts = 1;
  auto restored = OnlineDiagnoser::Create(net, tiny);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(restored->ApplyObservationOnly(alarms[0]).ok());
  ASSERT_TRUE(restored->ApplyObservationOnly(alarms[1]).ok());
  const size_t rules = restored->num_rules();

  ASSERT_FALSE(restored->Observe(alarms[2]).ok());
  EXPECT_EQ(restored->num_observed(), 2u);
  EXPECT_EQ(restored->num_rules(), rules);
  ASSERT_FALSE(restored->Observe(alarms[2]).ok());
  EXPECT_EQ(restored->num_rules(), rules);

  restored->set_max_facts(5'000'000);
  auto retried = restored->Observe(alarms[2]);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  auto fresh = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh->Observe(alarms[0]).ok());
  ASSERT_TRUE(fresh->Observe(alarms[1]).ok());
  auto expected = fresh->Observe(alarms[2]);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*retried, *expected);
  EXPECT_EQ(restored->num_observed(), 3u);
  EXPECT_EQ(restored->num_rules(), fresh->num_rules());
}

}  // namespace
}  // namespace dqsq::diagnosis
