// The byte codec of the distributed runtime, and durable peer state.
//
// One codec. SnapshotWriter/SnapshotReader are the only byte primitives: a
// little-endian stream with no alignment, padding or versioning. On top of
// them sits one walk over Pattern, Rule (atoms, negations, disequalities),
// Tuple rows, RelId and Message, written once and parameterized only by how
// an identifier is written (the `Ids` policy):
//
//  * InProcessIds (below) writes SymbolId / PredicateId / TermId as raw U32.
//    Raw ids mean something only inside the DatalogContext that interned
//    them, so these bytes never leave the process: checkpoints, the
//    write-ahead log, DatalogPeer::SaveState and the transport's
//    ProtocolImage. Their contract is byte-stability within one build
//    (encode ∘ decode ∘ encode is the identity), not compatibility across
//    versions.
//  * NamedIds (dist/wire_codec.h) writes names — peers, constants,
//    predicates with their arity, terms recursively — and re-interns them on
//    decode. These are the TCP frames between peer processes, whose bytes
//    are a cross-process contract (pinned by a golden hash in
//    wire_codec_test).
//
// Both policies share one layout: every count is a U32; a message carries
// `rel` only for kTuples/kActivate/kSubquery and `subscriber` only for
// kActivate (the encoder CHECKs that other kinds leave them at their
// defaults, so nothing is dropped silently); the flags byte and the batched
// sections follow the transport envelope.
//
// Trust model: decoders abort (DQSQ_CHECK) on a truncated input, a count
// the remaining bytes cannot hold, an unknown pattern or message kind, and
// trailing bytes after a whole message or snapshot — a corrupt blob fails
// loudly instead of restoring garbage state. TCP frames are additionally
// length-bounded and checksummed before their payload is decoded
// (dist/wire_codec.h).
//
// Durable peer state, for crash-restart recovery (cf. the rollback-recovery
// protocols surveyed by Elnozahy et al., PAPERS.md): a PeerSnapshot is a
// consistent cut of everything one peer would lose in a crash — its
// transport channel state (per-channel next_seq / cumulative ack /
// out-of-order set, plus the payloads still unacknowledged or queued
// behind the flow-control window), its Dijkstra–Scholten engagement and
// its materialized relations (the opaque `peer_state` blob produced by
// PeerNode::SaveState).
//
// SimNetwork persists snapshots through the DurableStore interface on
// configurable write-ahead points: every wire delivery to a restartable
// peer is appended to that peer's write-ahead log BEFORE it is processed
// (pessimistic message logging), and a full snapshot is taken — truncating
// the log — every CrashPlan::checkpoint_every deliveries. Recovery is
// snapshot restore + deterministic replay of the logged deliveries; the
// replayed sends regenerate byte-identical wire messages (same sequence
// numbers, same payloads), which is CHECKed at restart.
#ifndef DQSQ_DIST_SNAPSHOT_H_
#define DQSQ_DIST_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "dist/message.h"

namespace dqsq::dist {

/// Append-only little-endian encoder for snapshot blobs.
class SnapshotWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(std::string_view s);
  /// A U32 count, then each element through `put`.
  template <class Range, class Put>
  void List(const Range& items, Put put) {
    DQSQ_CHECK_LE(items.size(), UINT32_MAX) << "list too long to encode";
    U32(static_cast<uint32_t>(items.size()));
    for (const auto& item : items) put(item);
  }

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Cursor-based decoder; aborts (DQSQ_CHECK) on truncated input.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view in) : in_(in) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  bool Bool() { return U8() != 0; }
  std::string Str();
  /// Reads a SnapshotWriter::List: a U32 count, then each element from
  /// `get`.
  template <class T, class Get>
  std::vector<T> List(Get get) {
    const uint32_t n = U32();
    std::vector<T> items;
    items.reserve(ReserveCount(n));
    for (uint32_t i = 0; i < n; ++i) items.push_back(get());
    return items;
  }

  bool AtEnd() const { return pos_ == in_.size(); }
  /// Bytes not yet read: bounds a decoded count before it sizes anything.
  size_t remaining() const { return in_.size() - pos_; }
  /// Reserve size for a decoded element count `n`: capped at remaining().
  /// Every element takes at least one byte, so a corrupt count fails as
  /// "truncated snapshot" while its elements are read, instead of asking
  /// reserve() for memory the input could never fill.
  size_t ReserveCount(uint64_t n) const {
    return n < remaining() ? static_cast<size_t>(n) : remaining();
  }

 private:
  std::string_view in_;
  size_t pos_ = 0;
};

// ---- Message codec: one walk, two identifier policies ----------------------

/// Raw ids, meaningful only inside the DatalogContext that interned them.
/// An `Ids` policy provides exactly these six members; NamedIds
/// (dist/wire_codec.h) is the other one.
struct InProcessIds {
  void PutSymbol(SymbolId id, SnapshotWriter& w) const { w.U32(id); }
  SymbolId GetSymbol(SnapshotReader& r) const { return r.U32(); }
  void PutPredicate(PredicateId id, SnapshotWriter& w) const { w.U32(id); }
  PredicateId GetPredicate(SnapshotReader& r) const { return r.U32(); }
  void PutTerm(TermId id, SnapshotWriter& w) const { w.U32(id); }
  TermId GetTerm(SnapshotReader& r) const { return r.U32(); }
};

template <class Ids = InProcessIds>
void EncodePattern(const Pattern& p, SnapshotWriter& w, const Ids& ids = {}) {
  w.U8(static_cast<uint8_t>(p.kind()));
  switch (p.kind()) {
    case Pattern::Kind::kVar:
      w.U32(p.var());
      return;
    case Pattern::Kind::kConst:
      ids.PutSymbol(p.symbol(), w);
      return;
    case Pattern::Kind::kApp:
      ids.PutSymbol(p.symbol(), w);
      w.List(p.args(), [&](const Pattern& a) { EncodePattern(a, w, ids); });
      return;
  }
}

template <class Ids = InProcessIds>
Pattern DecodePattern(SnapshotReader& r, const Ids& ids = {}) {
  switch (static_cast<Pattern::Kind>(r.U8())) {
    case Pattern::Kind::kVar:
      return Pattern::Var(r.U32());
    case Pattern::Kind::kConst:
      return Pattern::Const(ids.GetSymbol(r));
    case Pattern::Kind::kApp: {
      SymbolId fn = ids.GetSymbol(r);
      return Pattern::App(
          fn, r.List<Pattern>([&] { return DecodePattern(r, ids); }));
    }
  }
  DQSQ_CHECK(false) << "corrupt pattern kind";
  return Pattern::Const(0);
}

template <class Ids = InProcessIds>
void EncodeRel(const RelId& rel, SnapshotWriter& w, const Ids& ids = {}) {
  ids.PutPredicate(rel.pred, w);
  ids.PutSymbol(rel.peer, w);
}

template <class Ids = InProcessIds>
RelId DecodeRel(SnapshotReader& r, const Ids& ids = {}) {
  RelId rel;
  rel.pred = ids.GetPredicate(r);
  rel.peer = ids.GetSymbol(r);
  return rel;
}

/// One tuple: its arity, then each term.
template <class Ids = InProcessIds>
void EncodeRow(std::span<const TermId> row, SnapshotWriter& w,
               const Ids& ids = {}) {
  w.List(row, [&](TermId t) { ids.PutTerm(t, w); });
}

template <class Ids = InProcessIds>
Tuple DecodeRow(SnapshotReader& r, const Ids& ids = {}) {
  return r.List<TermId>([&] { return ids.GetTerm(r); });
}

inline void EncodeAdornment(const std::vector<bool>& bound, SnapshotWriter& w) {
  w.List(bound, [&](bool b) { w.Bool(b); });
}

inline std::vector<bool> DecodeAdornment(SnapshotReader& r) {
  return r.List<bool>([&] { return r.Bool(); });
}

template <class Ids = InProcessIds>
void EncodeRule(const Rule& rule, SnapshotWriter& w, const Ids& ids = {}) {
  auto pattern = [&](const Pattern& p) { EncodePattern(p, w, ids); };
  auto atom = [&](const Atom& a) {
    EncodeRel(a.rel, w, ids);
    w.List(a.args, pattern);
  };
  atom(rule.head);
  w.List(rule.body, atom);
  w.List(rule.negative, atom);
  w.List(rule.diseqs, [&](const Diseq& d) {
    pattern(d.lhs);
    pattern(d.rhs);
  });
  w.U32(rule.num_vars);
  w.List(rule.var_names, [&](const std::string& name) { w.Str(name); });
}

template <class Ids = InProcessIds>
Rule DecodeRule(SnapshotReader& r, const Ids& ids = {}) {
  auto pattern = [&] { return DecodePattern(r, ids); };
  auto atom = [&] {
    Atom a;
    a.rel = DecodeRel(r, ids);
    a.args = r.List<Pattern>(pattern);
    return a;
  };
  Rule rule;
  rule.head = atom();
  rule.body = r.List<Atom>(atom);
  rule.negative = r.List<Atom>(atom);
  rule.diseqs = r.List<Diseq>([&] {
    Diseq d;
    d.lhs = pattern();
    d.rhs = pattern();
    return d;
  });
  rule.num_vars = r.U32();
  rule.var_names = r.List<std::string>([&] { return r.Str(); });
  return rule;
}

/// Kinds whose `rel` is meaningful; the others (acks, hellos, installs)
/// neither carry it nor need it to name an interned predicate.
inline bool CarriesRel(MessageKind kind) {
  return kind == MessageKind::kTuples || kind == MessageKind::kActivate ||
         kind == MessageKind::kSubquery;
}

template <class Ids = InProcessIds>
void EncodeMessage(const Message& m, SnapshotWriter& w, const Ids& ids = {}) {
  auto row = [&](const Tuple& t) { EncodeRow(t, w, ids); };
  w.U8(static_cast<uint8_t>(m.kind));
  ids.PutSymbol(m.from, w);
  ids.PutSymbol(m.to, w);
  if (CarriesRel(m.kind)) {
    EncodeRel(m.rel, w, ids);
  } else {
    DQSQ_CHECK(m.rel == RelId{}) << "rel set on a message kind without one";
  }
  w.List(m.tuples, row);
  if (m.kind == MessageKind::kActivate) {
    ids.PutSymbol(m.subscriber, w);
  } else {
    DQSQ_CHECK_EQ(m.subscriber, SymbolId{0})
        << "subscriber set on a message kind without one";
  }
  EncodeAdornment(m.adornment, w);
  w.List(m.rules, [&](const Rule& rule) { EncodeRule(rule, w, ids); });
  // Transport envelope, verbatim: sequence numbers and epochs are
  // channel-local protocol state, not arena identifiers.
  w.U64(m.seq);
  w.U64(m.ack);
  w.List(m.sack, [&](const SackBlock& s) {
    w.U64(s.first);
    w.U64(s.last);
  });
  // Flags: bit0 = retransmit, bit1 = shard_replica, bit2 = batched
  // sections follow.
  uint8_t flags = 0;
  if (m.retransmit) flags |= 1;
  if (m.shard_replica) flags |= 2;
  if (!m.sections.empty()) flags |= 4;
  w.U8(flags);
  w.U64(m.epoch);
  if (!m.sections.empty()) {
    w.List(m.sections, [&](const TupleSection& s) {
      EncodeRel(s.rel, w, ids);
      w.List(s.tuples, row);
    });
  }
}

template <class Ids = InProcessIds>
Message DecodeMessage(SnapshotReader& r, const Ids& ids = {}) {
  auto row = [&] { return DecodeRow(r, ids); };
  Message m;
  const uint8_t kind = r.U8();
  DQSQ_CHECK_LE(kind, static_cast<uint8_t>(MessageKind::kTransportHello))
      << "corrupt message kind";
  m.kind = static_cast<MessageKind>(kind);
  m.from = ids.GetSymbol(r);
  m.to = ids.GetSymbol(r);
  if (CarriesRel(m.kind)) m.rel = DecodeRel(r, ids);
  m.tuples = r.List<Tuple>(row);
  if (m.kind == MessageKind::kActivate) m.subscriber = ids.GetSymbol(r);
  m.adornment = DecodeAdornment(r);
  m.rules = r.List<Rule>([&] { return DecodeRule(r, ids); });
  m.seq = r.U64();
  m.ack = r.U64();
  m.sack = r.List<SackBlock>([&] {
    SackBlock s;
    s.first = r.U64();
    s.last = r.U64();
    return s;
  });
  const uint8_t flags = r.U8();
  m.retransmit = (flags & 1) != 0;
  m.shard_replica = (flags & 2) != 0;
  m.epoch = r.U64();
  if ((flags & 4) != 0) {
    m.sections = r.List<TupleSection>([&] {
      TupleSection s;
      s.rel = DecodeRel(r, ids);
      s.tuples = r.List<Tuple>(row);
      return s;
    });
  }
  return m;
}

/// Sender half of one directed transport channel owned by the snapshotted
/// peer. Only protocol state is persisted: retransmit timers, backoff and
/// RTT-estimator state are timing hygiene and are rebuilt fresh after a
/// restart (exactly as a real transport re-estimates after reboot).
struct ChannelSenderState {
  SymbolId to = 0;
  uint64_t next_seq = 0;
  std::vector<Message> unacked;  // stamped, in-window, unacknowledged
  std::vector<Message> pending;  // stamped, queued behind the window (FIFO)
};

/// Receiver half of one directed transport channel into the peer.
struct ChannelReceiverState {
  SymbolId from = 0;
  uint64_t cum = 0;                     // all seqs <= cum delivered
  std::vector<uint64_t> out_of_order;   // delivered seqs > cum, ascending
};

struct PeerSnapshot {
  SymbolId peer = 0;
  uint64_t epoch = 0;  // incarnation the snapshot was taken in
  std::vector<ChannelSenderState> senders;      // ascending by `to`
  std::vector<ChannelReceiverState> receivers;  // ascending by `from`
  std::string peer_state;  // opaque PeerNode::SaveState() blob
};

std::string SerializePeerSnapshot(const PeerSnapshot& snap);
PeerSnapshot DeserializePeerSnapshot(std::string_view bytes);

/// Minimal durable-store interface the network checkpoints through: a
/// keyed blob store plus per-key append-only logs (the write-ahead logs).
class DurableStore {
 public:
  virtual ~DurableStore() = default;

  virtual void Put(const std::string& key, std::string value) = 0;
  virtual std::optional<std::string> Get(const std::string& key) const = 0;
  /// Removes the blob under `key` (no-op when absent). Logs are separate:
  /// see TruncateLog.
  virtual void Erase(const std::string& key) = 0;

  virtual void Append(const std::string& key, std::string record) = 0;
  virtual const std::vector<std::string>& ReadLog(
      const std::string& key) const = 0;
  virtual void TruncateLog(const std::string& key) = 0;

  /// Total bytes handed to Put/Append — the durability write volume.
  virtual size_t bytes_written() const = 0;
};

/// In-process store modeling a local disk: state written here survives a
/// simulated peer crash (which wipes only the peer's volatile state).
class InMemoryDurableStore : public DurableStore {
 public:
  void Put(const std::string& key, std::string value) override;
  std::optional<std::string> Get(const std::string& key) const override;
  void Erase(const std::string& key) override;
  void Append(const std::string& key, std::string record) override;
  const std::vector<std::string>& ReadLog(
      const std::string& key) const override;
  void TruncateLog(const std::string& key) override;
  size_t bytes_written() const override { return bytes_written_; }

 private:
  std::map<std::string, std::string> blobs_;
  std::map<std::string, std::vector<std::string>> logs_;
  size_t bytes_written_ = 0;
  static const std::vector<std::string> kEmptyLog;
};

}  // namespace dqsq::dist

#endif  // DQSQ_DIST_SNAPSHOT_H_
