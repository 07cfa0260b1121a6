#include "diagnosis/service.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
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

TEST(DiagnosisServiceTest, RegisterOpenObserve) {
  DiagnosisService service;
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("plant-1", "paper").ok());

  petri::AlarmSequence prefix;
  for (const petri::Alarm& alarm :
       petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}, {"c", "p1"}})) {
    prefix.push_back(alarm);
    auto result = service.Observe("plant-1", alarm);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, Batch(net, prefix));
  }
  auto observed = service.NumObserved("plant-1");
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(*observed, 3u);
}

TEST(DiagnosisServiceTest, RegistryAndSessionErrors) {
  DiagnosisService service;
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  EXPECT_FALSE(service.RegisterModel("paper", net).ok());   // duplicate
  EXPECT_FALSE(service.OpenSession("s", "nope").ok());      // unknown model
  ASSERT_TRUE(service.OpenSession("s", "paper").ok());
  EXPECT_FALSE(service.OpenSession("s", "paper").ok());     // duplicate
  EXPECT_FALSE(service.Observe("ghost", {"b", "p1"}).ok()); // unknown session
  EXPECT_FALSE(service.CloseSession("ghost").ok());
  ASSERT_TRUE(service.CloseSession("s").ok());
  EXPECT_EQ(service.num_sessions(), 0u);
}

TEST(DiagnosisServiceTest, AdmissionControlRejectsBeyondCap) {
  ServiceOptions opts;
  opts.max_sessions = 2;
  DiagnosisService service(opts);
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("s1", "paper").ok());
  ASSERT_TRUE(service.OpenSession("s2", "paper").ok());
  Status rejected = service.OpenSession("s3", "paper");
  EXPECT_FALSE(rejected.ok());
  EXPECT_FALSE(service.has_session("s3"));
  // A closed slot can be re-admitted.
  ASSERT_TRUE(service.CloseSession("s1").ok());
  EXPECT_TRUE(service.OpenSession("s3", "paper").ok());
}

TEST(DiagnosisServiceTest, UnknownPeerAlarmLeavesStateUntouched) {
  DiagnosisService service;
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("s", "paper").ok());
  ASSERT_TRUE(service.Observe("s", {"b", "p1"}).ok());

  auto bad = service.Observe("s", {"a", "not-a-peer"});
  EXPECT_FALSE(bad.ok());
  auto observed = service.NumObserved("s");
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(*observed, 1u);

  // The session keeps answering correctly after the rejected alarm.
  auto next = service.Observe("s", {"a", "p2"});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, Batch(net, petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}})));
}

TEST(DiagnosisServiceTest, BudgetExhaustedObserveRetryIsIdempotent) {
  ServiceOptions opts;
  opts.session_max_facts = 1;
  DiagnosisService service(opts);
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("s", "paper").ok());

  EXPECT_FALSE(service.Observe("s", {"b", "p1"}).ok());
  EXPECT_FALSE(service.Observe("s", {"b", "p1"}).ok());  // retry: same error
  auto observed = service.NumObserved("s");
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(*observed, 0u);

  ASSERT_TRUE(service.SetSessionBudget("s", 5'000'000).ok());
  auto ok = service.Observe("s", {"b", "p1"});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok, Batch(net, petri::MakeAlarms({{"b", "p1"}})));
}

TEST(DiagnosisServiceTest, HibernateRestoreRoundTripsByteIdentically) {
  dist::InMemoryDurableStore store;
  ServiceOptions opts;
  opts.store = &store;
  DiagnosisService service(opts);
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("plant", "paper").ok());
  ASSERT_TRUE(service.Observe("plant", {"b", "p1"}).ok());
  ASSERT_TRUE(service.Observe("plant", {"a", "p2"}).ok());

  ASSERT_TRUE(service.Hibernate("plant").ok());
  EXPECT_FALSE(service.is_resident("plant"));
  auto image1 = store.Get("diag.session/plant");
  ASSERT_TRUE(image1.has_value());

  // Current() restores the session from the image without evaluating,
  // and re-hibernating must reproduce the image byte for byte.
  auto current = service.Current("plant");
  ASSERT_TRUE(current.ok());
  EXPECT_TRUE(service.is_resident("plant"));
  EXPECT_EQ(*current, Batch(net, petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}})));

  ASSERT_TRUE(service.Hibernate("plant").ok());
  auto image2 = store.Get("diag.session/plant");
  ASSERT_TRUE(image2.has_value());
  EXPECT_EQ(*image1, *image2);

  // The restored session keeps diagnosing correctly.
  auto next = service.Observe("plant", {"c", "p1"});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, Batch(net, petri::MakeAlarms(
                                  {{"b", "p1"}, {"a", "p2"}, {"c", "p1"}})));
}

TEST(DiagnosisServiceTest, CloseErasesTheHibernationImage) {
  dist::InMemoryDurableStore store;
  ServiceOptions opts;
  opts.store = &store;
  DiagnosisService service(opts);
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("plant", "paper").ok());
  ASSERT_TRUE(service.Observe("plant", {"b", "p1"}).ok());
  ASSERT_TRUE(service.Observe("plant", {"a", "p2"}).ok());
  ASSERT_TRUE(service.Hibernate("plant").ok());
  ASSERT_TRUE(store.Get("diag.session/plant").has_value());

  ASSERT_TRUE(service.CloseSession("plant").ok());
  EXPECT_FALSE(store.Get("diag.session/plant").has_value());

  // The name reopens as a fresh session, with no history of its own.
  ASSERT_TRUE(service.OpenSession("plant", "paper").ok());
  auto observed = service.NumObserved("plant");
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(*observed, 0u);
  auto result = service.Observe("plant", {"c", "p1"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, Batch(net, petri::MakeAlarms({{"c", "p1"}})));

  // A resident session that was hibernated once and woke again still has
  // its old image at the store; closing erases that one too.
  ASSERT_TRUE(service.Hibernate("plant").ok());
  ASSERT_TRUE(service.Current("plant").ok());
  ASSERT_TRUE(service.is_resident("plant"));
  ASSERT_TRUE(store.Get("diag.session/plant").has_value());
  ASSERT_TRUE(service.CloseSession("plant").ok());
  EXPECT_FALSE(store.Get("diag.session/plant").has_value());
}

TEST(DiagnosisServiceTest, ColdSessionsEvictUnderResidencyCap) {
  ServiceOptions opts;
  opts.max_resident_sessions = 1;
  DiagnosisService service(opts);
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("s1", "paper").ok());
  ASSERT_TRUE(service.OpenSession("s2", "paper").ok());
  EXPECT_EQ(service.num_resident(), 1u);
  EXPECT_FALSE(service.is_resident("s1"));  // evicted by s2's admission

  // Alternating alarms churn hibernate/restore; answers stay correct.
  petri::AlarmSequence prefix;
  for (const petri::Alarm& alarm :
       petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}, {"c", "p1"}})) {
    prefix.push_back(alarm);
    auto r1 = service.Observe("s1", alarm);
    auto r2 = service.Observe("s2", alarm);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    EXPECT_EQ(*r1, Batch(net, prefix));
    EXPECT_EQ(*r2, Batch(net, prefix));
    EXPECT_EQ(service.num_resident(), 1u);
  }
}

TEST(DiagnosisServiceTest, SharedCacheMatchesIsolatedSessions) {
  // Two sessions sharing the model's prefix cache must answer exactly as
  // two fully isolated services; the second stream is served from cache.
  petri::PetriNet net = petri::MakePaperNet(/*with_loop=*/true);
  petri::AlarmSequence alarms = petri::MakeAlarms(
      {{"a", "p2"}, {"b", "p1"}, {"c", "p2"}, {"a", "p2"}});

  DiagnosisService shared;
  ASSERT_TRUE(shared.RegisterModel("m", net).ok());
  ASSERT_TRUE(shared.OpenSession("a", "m").ok());
  ASSERT_TRUE(shared.OpenSession("b", "m").ok());

  DiagnosisService isolated_a, isolated_b;
  ASSERT_TRUE(isolated_a.RegisterModel("m", net).ok());
  ASSERT_TRUE(isolated_b.RegisterModel("m", net).ok());
  ASSERT_TRUE(isolated_a.OpenSession("a", "m").ok());
  ASSERT_TRUE(isolated_b.OpenSession("b", "m").ok());

  for (const petri::Alarm& alarm : alarms) {
    auto sa = shared.Observe("a", alarm);
    auto sb = shared.Observe("b", alarm);
    auto ia = isolated_a.Observe("a", alarm);
    auto ib = isolated_b.Observe("b", alarm);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    ASSERT_TRUE(ia.ok());
    ASSERT_TRUE(ib.ok());
    EXPECT_EQ(*sa, *ia);
    EXPECT_EQ(*sb, *ib);
  }
  // Session b never evaluated: every one of its prefixes was a hit from a.
  const SubqueryCache* cache = shared.cache("m");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->hits(), alarms.size());
  EXPECT_EQ(cache->misses(), alarms.size());
}

TEST(DiagnosisServiceTest, CacheDisabledStillAnswers) {
  ServiceOptions opts;
  opts.cache_bytes = 0;
  DiagnosisService service(opts);
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("m", net).ok());
  ASSERT_TRUE(service.OpenSession("s", "m").ok());
  auto result = service.Observe("s", {"b", "p1"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, Batch(net, petri::MakeAlarms({{"b", "p1"}})));
  EXPECT_EQ(service.cache("m")->entries(), 0u);
}

TEST(DiagnosisServiceTest, UnregisterHibernatesResidentsAndIdenticalNetWakes) {
  DiagnosisService service;
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("s1", "paper").ok());
  ASSERT_TRUE(service.OpenSession("s2", "paper").ok());
  ASSERT_TRUE(service.Observe("s1", {"b", "p1"}).ok());
  EXPECT_FALSE(service.UnregisterModel("ghost").ok());

  // Resident diagnosers borrow the model's context: unregistering must
  // hibernate them first, while they stay admitted.
  ASSERT_TRUE(service.UnregisterModel("paper").ok());
  EXPECT_FALSE(service.is_resident("s1"));
  EXPECT_FALSE(service.is_resident("s2"));
  EXPECT_TRUE(service.has_session("s1"));
  EXPECT_EQ(service.cache("paper"), nullptr);

  // With no model registered, waking fails cleanly and is retryable.
  auto gone = service.Observe("s1", {"a", "p2"});
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kFailedPrecondition);

  // A structurally identical re-registration has the same fingerprint, so
  // the hibernated sessions wake and keep diagnosing correctly.
  ASSERT_TRUE(service.RegisterModel("paper", petri::MakePaperNet()).ok());
  auto next = service.Observe("s1", {"a", "p2"});
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, Batch(net, petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}})));
  auto fresh = service.Observe("s2", {"b", "p1"});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
}

TEST(DiagnosisServiceTest, WakeAgainstReRegisteredDifferentModelFailsCleanly) {
  // Death-adjacent regression: a session hibernated under one plant model
  // must NOT wake against a structurally different net re-registered under
  // the same name — its alarm history would be replayed into the wrong
  // plant. The old behaviour was a process-killing consistency CHECK; now
  // admission fails with FAILED_PRECONDITION and the service stays usable.
  DiagnosisService service;
  ASSERT_TRUE(service.RegisterModel("paper", petri::MakePaperNet()).ok());
  ASSERT_TRUE(service.OpenSession("plant", "paper").ok());
  ASSERT_TRUE(service.Observe("plant", {"b", "p1"}).ok());
  ASSERT_TRUE(service.Hibernate("plant").ok());

  ASSERT_TRUE(service.UnregisterModel("paper").ok());
  petri::PetriNet redeployed = petri::MakePaperNet(/*with_loop=*/true);
  ASSERT_TRUE(service.RegisterModel("paper", redeployed).ok());

  auto woken = service.Observe("plant", {"a", "p2"});
  ASSERT_FALSE(woken.ok());
  EXPECT_EQ(woken.status().code(), StatusCode::kFailedPrecondition);
  auto current = service.Current("plant");
  ASSERT_FALSE(current.ok());
  EXPECT_EQ(current.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(service.is_resident("plant"));
  EXPECT_TRUE(service.has_session("plant"));

  // The rejection is per-session: new sessions of the redeployed model run
  // normally, and the stale session frees its admission slot on close.
  ASSERT_TRUE(service.OpenSession("plant-2", "paper").ok());
  auto fresh = service.Observe("plant-2", {"b", "p1"});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(*fresh, Batch(redeployed, petri::MakeAlarms({{"b", "p1"}})));
  EXPECT_TRUE(service.CloseSession("plant").ok());
}

TEST(DiagnosisServiceTest, PrefixKeyIsInterleavingInvariant) {
  auto k1 = ObservationPrefixKey(
      petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}, {"c", "p1"}}));
  auto k2 = ObservationPrefixKey(
      petri::MakeAlarms({{"b", "p1"}, {"c", "p1"}, {"a", "p2"}}));
  auto k3 = ObservationPrefixKey(
      petri::MakeAlarms({{"c", "p1"}, {"b", "p1"}, {"a", "p2"}}));
  EXPECT_EQ(k1, k2);   // same per-peer subsequences
  EXPECT_NE(k1, k3);   // p1's order differs
}

TEST(DiagnosisServiceTest, FirstMissAfterRestoreFailsCleanlyThenRetries) {
  // A restored session builds its evaluation state on its first cache
  // miss. If that evaluation fails on budget, the session must be exactly
  // as it was restored (same image at the store) and the retry must
  // answer as a fresh diagnosis does.
  dist::InMemoryDurableStore store;
  ServiceOptions opts;
  opts.store = &store;
  DiagnosisService service(opts);
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("plant", "paper").ok());
  ASSERT_TRUE(service.Observe("plant", {"b", "p1"}).ok());
  ASSERT_TRUE(service.Observe("plant", {"a", "p2"}).ok());
  ASSERT_TRUE(service.Hibernate("plant").ok());
  auto image = store.Get("diag.session/plant");
  ASSERT_TRUE(image.has_value());

  ASSERT_TRUE(service.SetSessionBudget("plant", 1).ok());
  EXPECT_FALSE(service.Observe("plant", {"c", "p1"}).ok());
  EXPECT_TRUE(service.is_resident("plant"));
  EXPECT_FALSE(service.Observe("plant", {"c", "p1"}).ok());
  auto observed = service.NumObserved("plant");
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(*observed, 2u);
  ASSERT_TRUE(service.Hibernate("plant").ok());
  EXPECT_EQ(store.Get("diag.session/plant"), image);

  ASSERT_TRUE(service.SetSessionBudget("plant", 5'000'000).ok());
  auto retried = service.Observe("plant", {"c", "p1"});
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*retried, Batch(net, petri::MakeAlarms(
                                     {{"b", "p1"}, {"a", "p2"}, {"c", "p1"}})));
}

TEST(DiagnosisServicePropertyTest, InterleavedSessionsMatchBfhjOnEveryPrefix) {
  // Seeded interleavings of 8 sessions over a resident cap of 2, so nearly
  // every alarm restores a session, with the prefix cache on (odd seeds)
  // or off (even seeds) and budget failures injected at random. Every
  // answer must equal BFHJ's on that session's prefix, and a failed alarm
  // must leave the session's prefix unchanged.
  constexpr size_t kSessions = 8;
  petri::PetriNet net = petri::MakePaperNet(/*with_loop=*/true);
  std::map<std::string, std::vector<Explanation>> memo;
  auto bfhj = [&](const petri::AlarmSequence& prefix) {
    const std::string key = petri::AlarmSequenceToString(prefix);
    auto it = memo.find(key);
    if (it == memo.end()) {
      DiagnosisOptions oracle;
      oracle.engine = DiagnosisEngine::kBfhj;
      auto r = Diagnose(net, prefix, oracle);
      DQSQ_CHECK_OK(r.status());
      it = memo.emplace(key, r->explanations).first;
    }
    return it->second;
  };
  size_t injected_failures = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ServiceOptions opts;
    opts.max_resident_sessions = 2;
    opts.cache_bytes = seed % 2 == 1 ? (1u << 20) : 0;
    DiagnosisService service(opts);
    ASSERT_TRUE(service.RegisterModel("m", net).ok());

    // Sessions draw from a pool of three streams, so prefixes repeat.
    std::vector<petri::AlarmSequence> pool;
    while (pool.size() < 3) {
      auto run = petri::GenerateRun(net, 4, rng);
      ASSERT_TRUE(run.ok());
      if (!run->observation.empty()) pool.push_back(run->observation);
    }
    std::vector<petri::AlarmSequence> streams, prefixes(kSessions);
    for (size_t i = 0; i < kSessions; ++i) {
      streams.push_back(pool[rng.NextBelow(pool.size())]);
      ASSERT_TRUE(service.OpenSession("s" + std::to_string(i), "m").ok());
    }
    std::vector<size_t> open(kSessions);
    for (size_t i = 0; i < kSessions; ++i) open[i] = i;
    while (!open.empty()) {
      const size_t k = rng.NextBelow(open.size());
      const size_t i = open[k];
      const std::string name = "s" + std::to_string(i);
      const petri::Alarm& alarm = streams[i][prefixes[i].size()];
      bool served = false;
      if (rng.NextBool(0.25)) {
        ASSERT_TRUE(service.SetSessionBudget(name, 1).ok());
        auto starved = service.Observe(name, alarm);
        ASSERT_TRUE(service.SetSessionBudget(name, 5'000'000).ok());
        if (starved.ok()) {  // a cache hit needs no budget
          prefixes[i].push_back(alarm);
          ASSERT_EQ(*starved, bfhj(prefixes[i]));
          served = true;
        } else {
          ++injected_failures;
          auto observed = service.NumObserved(name);
          ASSERT_TRUE(observed.ok());
          ASSERT_EQ(*observed, prefixes[i].size());
        }
      }
      if (!served) {
        auto answer = service.Observe(name, alarm);
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        prefixes[i].push_back(alarm);
        ASSERT_EQ(*answer, bfhj(prefixes[i]));
      }
      if (prefixes[i].size() == streams[i].size()) {
        auto current = service.Current(name);
        ASSERT_TRUE(current.ok());
        ASSERT_EQ(*current, bfhj(prefixes[i]));
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
      }
    }
  }
  EXPECT_GT(injected_failures, 0u);
}

TEST(DiagnosisServiceDeathTest, CorruptExplanationCountsAbort) {
  // A count larger than the remaining bytes could hold is refused before
  // it sizes a vector (up to 4 billion explanations or events).
  dist::SnapshotWriter explanations;
  explanations.U32(0xffffffffu);
  explanations.U32(0);
  const std::string blob1 = explanations.Take();
  dist::SnapshotReader r1(blob1);
  EXPECT_DEATH((void)DecodeExplanations(r1), "truncated snapshot");

  dist::SnapshotWriter events;
  events.U32(1);
  events.U32(1u << 30);
  events.Str("e1");
  const std::string blob2 = events.Take();
  dist::SnapshotReader r2(blob2);
  EXPECT_DEATH((void)DecodeExplanations(r2), "truncated snapshot");
}

}  // namespace
}  // namespace dqsq::diagnosis
