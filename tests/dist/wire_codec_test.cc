#include "dist/wire_codec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "tests/dist/codec_test_util.h"

namespace dqsq::dist {
namespace {

// The round-trip property under both identifier policies. Named ids:
// decoding into a context with a different interning order and
// re-encoding reproduces the original bytes (the encoding is name-based,
// so it is independent of local ids). In-process ids: the same walk over
// raw ids round-trips within the sender's context, and the message it
// decodes re-encodes to the same named bytes.
TEST(WireCodecTest, SymbolicRoundTripAcrossContexts20Seeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    DatalogContext sender;
    DatalogContext receiver;
    ScrambleInterning(rng, receiver);
    for (int i = 0; i < 10; ++i) {
      Message original = RandomMessage(rng, sender);
      std::string bytes = EncodeWireMessage(original, sender);
      Message decoded = DecodeWireMessage(bytes, receiver);
      EXPECT_EQ(EncodeWireMessage(decoded, receiver), bytes)
          << "seed " << seed << " message " << i;
      // Spot-check the names survived the id translation.
      EXPECT_EQ(receiver.symbols().Name(decoded.from),
                sender.symbols().Name(original.from));
      EXPECT_EQ(receiver.symbols().Name(decoded.to),
                sender.symbols().Name(original.to));
      EXPECT_EQ(decoded.tuples.size(), original.tuples.size());
      EXPECT_EQ(decoded.seq, original.seq);
      EXPECT_EQ(decoded.epoch, original.epoch);
      const Message raw =
          ExpectByteStable(original, EncodeMessageWith, DecodeMessageWith,
                           InProcessIds{}, InProcessIds{});
      EXPECT_EQ(EncodeWireMessage(raw, sender), bytes)
          << "seed " << seed << " message " << i;
    }
  }
}

// The cross-process format is a contract between peer processes that
// may run different builds: pin every byte the 20-seed generator
// produces. The constant is the FNV-1a (64-bit) hash of all 200 payloads
// in order; a codec change that moves any byte on the wire fails here.
TEST(WireCodecTest, EncodingMatchesGoldenHash20Seeds) {
  uint64_t hash = 14695981039346656037ull;
  size_t bytes_hashed = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    DatalogContext ctx;
    for (int i = 0; i < 10; ++i) {
      for (char c : EncodeWireMessage(RandomMessage(rng, ctx), ctx)) {
        hash = (hash ^ static_cast<uint8_t>(c)) * 1099511628211ull;
        ++bytes_hashed;
      }
    }
  }
  EXPECT_EQ(bytes_hashed, 35901u);
  EXPECT_EQ(hash, 0x34927b92aeb5a0b9ull);
}

TEST(WireCodecTest, TermRoundTripPreservesRendering) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    DatalogContext sender;
    DatalogContext receiver;
    ScrambleInterning(rng, receiver);
    TermId term = RandomTerm(rng, sender, 3);
    SnapshotWriter w;
    EncodeWireTerm(term, sender, w);
    SnapshotReader r(w.bytes());
    TermId decoded = DecodeWireTerm(r, receiver);
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(receiver.arena().ToString(decoded, receiver.symbols()),
              sender.arena().ToString(term, sender.symbols()));
    // In-process ids: a term is its raw id.
    auto encode = [](TermId t, SnapshotWriter& out, const auto& ids) {
      ids.PutTerm(t, out);
    };
    auto decode = [](SnapshotReader& in, const auto& ids) {
      return ids.GetTerm(in);
    };
    EXPECT_EQ(ExpectByteStable(term, encode, decode, InProcessIds{},
                               InProcessIds{}),
              term);
  }
}

// A count of 2^31 over a short payload must fail as truncated input, not
// throw from reserve() (TCP frames come from outside the process).
TEST(WireCodecDeathTest, HugeTermArityAbortsAsTruncated) {
  SnapshotWriter w;
  w.U8(1);  // application
  w.Str("f");
  w.U32(uint32_t{1} << 31);
  w.U8(0);  // one constant argument, then the input ends
  w.Str("a");
  const std::string bytes = w.bytes();
  DatalogContext ctx;
  SnapshotReader r(bytes);
  EXPECT_DEATH((void)DecodeWireTerm(r, ctx), "truncated snapshot");
}

TEST(WireCodecDeathTest, HugeTupleCountAbortsAsTruncated) {
  SnapshotWriter w;
  w.U8(static_cast<uint8_t>(MessageKind::kTuples));
  w.Str("p1");  // from
  w.Str("p2");  // to
  w.Str("r");   // relation: name, arity, peer
  w.U32(1);
  w.Str("p2");
  w.U32(uint32_t{1} << 31);  // tuples
  w.U32(1);                  // first tuple's arity, then the input ends
  const std::string bytes = w.bytes();
  DatalogContext ctx;
  EXPECT_DEATH((void)DecodeWireMessage(bytes, ctx), "truncated snapshot");
}

TEST(WireCodecDeathTest, CorruptMessageKindAborts) {
  // A frame passes its checksum, but its kind byte is one past
  // kTransportHello: the decoder must reject it, not hand an unknown kind
  // to the transport and the peer.
  DatalogContext ctx;
  Message m;
  m.kind = MessageKind::kAck;
  m.from = ctx.InternPeer("p1");
  m.to = ctx.InternPeer("p2");
  std::string bytes = EncodeWireMessage(m, ctx);
  bytes[0] = static_cast<char>(
      static_cast<uint8_t>(MessageKind::kTransportHello) + 1);
  EXPECT_DEATH((void)DecodeWireMessage(bytes, ctx), "corrupt message kind");
}

// ---- Framing -------------------------------------------------------------

TEST(FrameDecoderTest, ReassemblesArbitraryChunking20Seeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    DatalogContext ctx;
    std::vector<std::string> payloads;
    std::string stream;
    size_t n = 1 + rng.NextBelow(8);
    for (size_t i = 0; i < n; ++i) {
      payloads.push_back(EncodeWireMessage(RandomMessage(rng, ctx), ctx));
      stream += EncodeFrame(FrameType::kPeerMessage, payloads.back());
    }
    FrameDecoder decoder;
    std::vector<Frame> frames;
    size_t pos = 0;
    while (pos < stream.size()) {
      size_t chunk = 1 + rng.NextBelow(97);  // tiny, unaligned chunks
      chunk = std::min(chunk, stream.size() - pos);
      decoder.Feed(std::string_view(stream).substr(pos, chunk));
      pos += chunk;
      for (;;) {
        auto next = decoder.Next();
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        if (!next->has_value()) break;
        frames.push_back(std::move(**next));
      }
    }
    ASSERT_EQ(frames.size(), payloads.size()) << "seed " << seed;
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].type, FrameType::kPeerMessage);
      EXPECT_EQ(frames[i].payload, payloads[i]);
    }
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(FrameDecoderTest, TruncatedFrameWaitsForMoreBytes) {
  std::string frame = EncodeFrame(FrameType::kHello, "hello payload");
  FrameDecoder decoder;
  decoder.Feed(std::string_view(frame).substr(0, frame.size() - 1));
  auto next = decoder.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->has_value());  // incomplete, not an error
  decoder.Feed(std::string_view(frame).substr(frame.size() - 1));
  next = decoder.Next();
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next->has_value());
  EXPECT_EQ((*next)->payload, "hello payload");
}

TEST(FrameDecoderTest, GarbagePrefixPoisonsTheStream) {
  FrameDecoder decoder;
  decoder.Feed("this is not a frame header at all");
  auto next = decoder.Next();
  EXPECT_FALSE(next.ok());
  // Poisoned: even after feeding a valid frame the error persists (a byte
  // stream that lost sync cannot be trusted again).
  decoder.Feed(EncodeFrame(FrameType::kHello, "ok"));
  EXPECT_FALSE(decoder.Next().ok());
}

TEST(FrameDecoderTest, ChecksumMismatchIsAnError) {
  std::string frame = EncodeFrame(FrameType::kStart, "some payload bytes");
  frame[frame.size() - 1] ^= 0x5a;  // corrupt the payload, not the header
  FrameDecoder decoder;
  decoder.Feed(frame);
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("checksum"), std::string::npos);
}

TEST(FrameDecoderTest, OversizedLengthIsAnErrorNotAnAllocation) {
  std::string frame = EncodeFrame(FrameType::kHello, "x");
  // Patch the length field (bytes 5..8) to an absurd value.
  for (int i = 5; i < 9; ++i) frame[i] = static_cast<char>(0xff);
  FrameDecoder decoder;
  decoder.Feed(frame);
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("length"), std::string::npos);
}

TEST(FrameDecoderTest, UnknownFrameTypeIsAnError) {
  std::string frame = EncodeFrame(FrameType::kHello, "x");
  frame[4] = static_cast<char>(0x7f);
  FrameDecoder decoder;
  decoder.Feed(frame);
  EXPECT_FALSE(decoder.Next().ok());
}

}  // namespace
}  // namespace dqsq::dist
