#include "dist/snapshot.h"

#include <utility>

#include "common/logging.h"

namespace dqsq::dist {

void SnapshotWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
}

void SnapshotWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
}

void SnapshotWriter::Str(std::string_view s) {
  U64(s.size());
  out_.append(s.data(), s.size());
}

uint8_t SnapshotReader::U8() {
  DQSQ_CHECK_LT(pos_, in_.size()) << "truncated snapshot";
  return static_cast<uint8_t>(in_[pos_++]);
}

uint32_t SnapshotReader::U32() {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(U8()) << (8 * i);
  return v;
}

uint64_t SnapshotReader::U64() {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(U8()) << (8 * i);
  return v;
}

std::string SnapshotReader::Str() {
  uint64_t n = U64();
  // n <= remaining(), not pos + n <= size: the sum wraps for huge n.
  DQSQ_CHECK_LE(n, remaining()) << "truncated snapshot";
  std::string s(in_.substr(pos_, n));
  pos_ += n;
  return s;
}

std::string SerializePeerSnapshot(const PeerSnapshot& snap) {
  SnapshotWriter w;
  w.U32(snap.peer);
  w.U64(snap.epoch);
  w.U64(snap.senders.size());
  for (const ChannelSenderState& s : snap.senders) {
    w.U32(s.to);
    w.U64(s.next_seq);
    w.U64(s.unacked.size());
    for (const Message& m : s.unacked) EncodeMessage(m, w);
    w.U64(s.pending.size());
    for (const Message& m : s.pending) EncodeMessage(m, w);
  }
  w.U64(snap.receivers.size());
  for (const ChannelReceiverState& r : snap.receivers) {
    w.U32(r.from);
    w.U64(r.cum);
    w.U64(r.out_of_order.size());
    for (uint64_t seq : r.out_of_order) w.U64(seq);
  }
  w.Str(snap.peer_state);
  return w.Take();
}

PeerSnapshot DeserializePeerSnapshot(std::string_view bytes) {
  SnapshotReader r(bytes);
  PeerSnapshot snap;
  snap.peer = r.U32();
  snap.epoch = r.U64();
  uint64_t n = r.U64();
  snap.senders.reserve(r.ReserveCount(n));
  for (uint64_t i = 0; i < n; ++i) {
    ChannelSenderState s;
    s.to = r.U32();
    s.next_seq = r.U64();
    uint64_t k = r.U64();
    s.unacked.reserve(r.ReserveCount(k));
    for (uint64_t j = 0; j < k; ++j) s.unacked.push_back(DecodeMessage(r));
    k = r.U64();
    s.pending.reserve(r.ReserveCount(k));
    for (uint64_t j = 0; j < k; ++j) s.pending.push_back(DecodeMessage(r));
    snap.senders.push_back(std::move(s));
  }
  n = r.U64();
  snap.receivers.reserve(r.ReserveCount(n));
  for (uint64_t i = 0; i < n; ++i) {
    ChannelReceiverState recv;
    recv.from = r.U32();
    recv.cum = r.U64();
    uint64_t k = r.U64();
    recv.out_of_order.reserve(r.ReserveCount(k));
    for (uint64_t j = 0; j < k; ++j) recv.out_of_order.push_back(r.U64());
    snap.receivers.push_back(std::move(recv));
  }
  snap.peer_state = r.Str();
  DQSQ_CHECK(r.AtEnd()) << "trailing bytes after snapshot";
  return snap;
}

const std::vector<std::string> InMemoryDurableStore::kEmptyLog;

void InMemoryDurableStore::Put(const std::string& key, std::string value) {
  bytes_written_ += value.size();
  blobs_[key] = std::move(value);
}

std::optional<std::string> InMemoryDurableStore::Get(
    const std::string& key) const {
  auto it = blobs_.find(key);
  if (it == blobs_.end()) return std::nullopt;
  return it->second;
}

void InMemoryDurableStore::Erase(const std::string& key) { blobs_.erase(key); }

void InMemoryDurableStore::Append(const std::string& key,
                                  std::string record) {
  bytes_written_ += record.size();
  logs_[key].push_back(std::move(record));
}

const std::vector<std::string>& InMemoryDurableStore::ReadLog(
    const std::string& key) const {
  auto it = logs_.find(key);
  if (it == logs_.end()) return kEmptyLog;
  return it->second;
}

void InMemoryDurableStore::TruncateLog(const std::string& key) {
  logs_.erase(key);
}

}  // namespace dqsq::dist
