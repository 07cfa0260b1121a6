// Shared by the codec suites (snapshot_test, wire_codec_test): seeded
// random dDatalog messages and the byte-stability check, so both run over
// both identifier policies on the same seeds. Names are drawn from small
// pools so cross-context re-interning gets exercised (the same name
// appears under different ids in different contexts). Predicate names
// carry their arity so InternPredicate stays consistent within a context.
#ifndef DQSQ_TESTS_DIST_CODEC_TEST_UTIL_H_
#define DQSQ_TESTS_DIST_CODEC_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datalog/ast.h"
#include "dist/message.h"
#include "dist/snapshot.h"

namespace dqsq::dist {

inline SymbolId RandomName(Rng& rng, DatalogContext& ctx, const char* prefix) {
  return ctx.symbols().Intern(prefix + std::to_string(rng.NextBelow(6)));
}

inline TermId RandomTerm(Rng& rng, DatalogContext& ctx, int depth) {
  if (depth <= 0 || rng.NextBool(0.6)) {
    return ctx.arena().MakeConstant(RandomName(rng, ctx, "c"));
  }
  std::vector<TermId> args;
  size_t n = 1 + rng.NextBelow(3);
  for (size_t i = 0; i < n; ++i) {
    args.push_back(RandomTerm(rng, ctx, depth - 1));
  }
  return ctx.arena().MakeApp(RandomName(rng, ctx, "f"), args);
}

inline RelId RandomRel(Rng& rng, DatalogContext& ctx) {
  uint32_t arity = 1 + static_cast<uint32_t>(rng.NextBelow(3));
  std::string pred =
      "r" + std::to_string(arity) + "_" + std::to_string(rng.NextBelow(4));
  return RelId{ctx.InternPredicate(pred, arity), RandomName(rng, ctx, "p")};
}

inline Pattern RandomPattern(Rng& rng, DatalogContext& ctx, int depth) {
  switch (depth > 0 ? rng.NextBelow(3) : rng.NextBelow(2)) {
    case 0:
      return Pattern::Var(static_cast<uint32_t>(rng.NextBelow(4)));
    case 1:
      return Pattern::Const(RandomName(rng, ctx, "c"));
    default: {
      std::vector<Pattern> args;
      size_t n = 1 + rng.NextBelow(2);
      for (size_t i = 0; i < n; ++i) {
        args.push_back(RandomPattern(rng, ctx, depth - 1));
      }
      return Pattern::App(RandomName(rng, ctx, "f"), std::move(args));
    }
  }
}

inline Atom RandomAtom(Rng& rng, DatalogContext& ctx) {
  Atom atom;
  atom.rel = RandomRel(rng, ctx);
  uint32_t arity = ctx.PredicateArity(atom.rel.pred);
  for (uint32_t i = 0; i < arity; ++i) {
    atom.args.push_back(RandomPattern(rng, ctx, 2));
  }
  return atom;
}

inline Rule RandomRule(Rng& rng, DatalogContext& ctx) {
  Rule rule;
  rule.head = RandomAtom(rng, ctx);
  size_t body = 1 + rng.NextBelow(2);
  for (size_t i = 0; i < body; ++i) rule.body.push_back(RandomAtom(rng, ctx));
  if (rng.NextBool(0.3)) {
    Diseq d;
    d.lhs = RandomPattern(rng, ctx, 1);
    d.rhs = RandomPattern(rng, ctx, 1);
    rule.diseqs.push_back(std::move(d));
  }
  rule.num_vars = 4;
  for (uint32_t i = 0; i < rule.num_vars; ++i) {
    rule.var_names.push_back("V" + std::to_string(i));
  }
  return rule;
}

inline Message RandomMessage(Rng& rng, DatalogContext& ctx) {
  static const MessageKind kKinds[] = {
      MessageKind::kTuples, MessageKind::kActivate, MessageKind::kSubquery,
      MessageKind::kInstall, MessageKind::kAck};
  Message m;
  m.kind = kKinds[rng.NextBelow(5)];
  m.from = RandomName(rng, ctx, "p");
  m.to = RandomName(rng, ctx, "p");
  if (m.kind == MessageKind::kTuples || m.kind == MessageKind::kActivate ||
      m.kind == MessageKind::kSubquery) {
    m.rel = RandomRel(rng, ctx);
  }
  if (m.kind == MessageKind::kTuples) {
    uint32_t arity = ctx.PredicateArity(m.rel.pred);
    size_t n = rng.NextBelow(4);
    for (size_t i = 0; i < n; ++i) {
      Tuple t;
      for (uint32_t j = 0; j < arity; ++j) {
        t.push_back(RandomTerm(rng, ctx, 2));
      }
      m.tuples.push_back(std::move(t));
    }
  }
  if (m.kind == MessageKind::kActivate) {
    m.subscriber = RandomName(rng, ctx, "p");
  }
  if (m.kind == MessageKind::kSubquery) {
    uint32_t arity = ctx.PredicateArity(m.rel.pred);
    for (uint32_t i = 0; i < arity; ++i) {
      m.adornment.push_back(rng.NextBool(0.5));
    }
  }
  if (m.kind == MessageKind::kInstall) {
    size_t n = 1 + rng.NextBelow(2);
    for (size_t i = 0; i < n; ++i) m.rules.push_back(RandomRule(rng, ctx));
  }
  // Transport envelope.
  m.seq = rng.NextBelow(1000);
  m.ack = rng.NextBelow(1000);
  if (rng.NextBool(0.3)) {
    m.sack.push_back(SackBlock{rng.NextBelow(100), 100 + rng.NextBelow(100)});
  }
  m.retransmit = rng.NextBool(0.2);
  m.epoch = rng.NextBelow(5);
  // Sharding and wire batching: flagged replicas and extra tuple sections.
  if (m.kind == MessageKind::kTuples) {
    m.shard_replica = rng.NextBool(0.2);
    size_t sections = rng.NextBool(0.3) ? 1 + rng.NextBelow(2) : 0;
    for (size_t i = 0; i < sections; ++i) {
      TupleSection s;
      s.rel = RandomRel(rng, ctx);
      uint32_t arity = ctx.PredicateArity(s.rel.pred);
      size_t rows = 1 + rng.NextBelow(3);
      for (size_t j = 0; j < rows; ++j) {
        Tuple t;
        for (uint32_t k = 0; k < arity; ++k) {
          t.push_back(RandomTerm(rng, ctx, 1));
        }
        s.tuples.push_back(std::move(t));
      }
      m.sections.push_back(std::move(s));
    }
  }
  return m;
}

/// Interns a seed-dependent set of names so the receiving context's id
/// assignment differs from the sender's — the situation the symbolic
/// codec exists for.
inline void ScrambleInterning(Rng& rng, DatalogContext& ctx) {
  size_t n = rng.NextBelow(20);
  for (size_t i = 0; i < n; ++i) {
    ctx.symbols().Intern("scramble" + std::to_string(rng.NextBelow(50)));
    RandomName(rng, ctx, "c");
    RandomName(rng, ctx, "p");
  }
}

/// encode ∘ decode ∘ encode is the identity: `encode(x, w, ids)` under the
/// sender's policy `from`, `decode(r, ids)` under the receiver's policy
/// `to` (consuming every byte), and re-encoding under `to` reproduces the
/// bytes. Raw in-process ids decode only into the context that interned
/// them; named ids decode into any context. Returns the decoded value.
template <class T, class Encode, class Decode, class From, class To>
T ExpectByteStable(const T& x, Encode encode, Decode decode, const From& from,
                   const To& to) {
  SnapshotWriter w1;
  encode(x, w1, from);
  SnapshotReader r(w1.bytes());
  T back = decode(r, to);
  EXPECT_TRUE(r.AtEnd());
  SnapshotWriter w2;
  encode(back, w2, to);
  EXPECT_EQ(w2.bytes(), w1.bytes());
  return back;
}

// The codec entry points as callables for ExpectByteStable, generic in the
// identifier policy.
inline constexpr auto EncodePatternWith =
    [](const Pattern& p, SnapshotWriter& w, const auto& ids) {
      EncodePattern(p, w, ids);
    };
inline constexpr auto DecodePatternWith =
    [](SnapshotReader& r, const auto& ids) { return DecodePattern(r, ids); };
inline constexpr auto EncodeRuleWith =
    [](const Rule& rule, SnapshotWriter& w, const auto& ids) {
      EncodeRule(rule, w, ids);
    };
inline constexpr auto DecodeRuleWith =
    [](SnapshotReader& r, const auto& ids) { return DecodeRule(r, ids); };
inline constexpr auto EncodeMessageWith =
    [](const Message& m, SnapshotWriter& w, const auto& ids) {
      EncodeMessage(m, w, ids);
    };
inline constexpr auto DecodeMessageWith =
    [](SnapshotReader& r, const auto& ids) { return DecodeMessage(r, ids); };

}  // namespace dqsq::dist

#endif  // DQSQ_TESTS_DIST_CODEC_TEST_UTIL_H_
