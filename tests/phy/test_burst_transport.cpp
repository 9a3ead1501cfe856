// Burst-transport semantics at the phy layer: run acceptance and
// refusal, per-bit fallback on contention/abort/reconfiguration, lazy
// receiver equivalence (every sample stream must match the per-bit
// reference radio bit for bit), and the lazy diagnostics counters.
#include <gtest/gtest.h>

#include <vector>

#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/bitvector.hpp"
#include "sim/environment.hpp"

namespace btsc::phy {
namespace {

using namespace btsc::sim::literals;
using btsc::sim::BitVector;
using btsc::sim::Environment;
using btsc::sim::SimTime;

/// Burst sink that accepts everything as quiet: records the sample
/// stream (expanded from bulk runs) without ever forcing a barrier.
struct QuietSink final : BurstRxSink {
  std::vector<Logic4> seen;
  std::size_t quiet_prefix(const sim::BitVector*, std::size_t,
                           std::size_t count) const override {
    return count;
  }
  void consume_quiet(const sim::BitVector* bits, std::size_t first,
                     std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) {
      seen.push_back(bits == nullptr ? Logic4::kZ
                                     : from_bit((*bits)[first + i]));
    }
  }
  void on_sample(Logic4 v) override { seen.push_back(v); }
};

/// Burst sink that declares EVERY sample a side effect: forces one
/// barrier per sample, i.e. per-bit timing through the lazy machinery.
struct EagerSink final : BurstRxSink {
  std::vector<Logic4> seen;
  std::vector<SimTime> at;
  Environment* env = nullptr;
  std::size_t quiet_prefix(const sim::BitVector*, std::size_t,
                           std::size_t) const override {
    return 0;
  }
  void consume_quiet(const sim::BitVector*, std::size_t,
                     std::size_t count) override {
    ASSERT_EQ(count, 0u) << "eager sink must never consume in bulk";
  }
  void on_sample(Logic4 v) override {
    seen.push_back(v);
    if (env != nullptr) at.push_back(env->now());
  }
};

/// Reference: a per-bit lambda radio recording (time, value) pairs.
struct Reference {
  std::vector<Logic4> seen;
  std::vector<SimTime> at;
};

/// Drives `script(sys)` twice -- once against a lazy QuietSink radio,
/// once against a plain per-bit radio -- and requires identical sample
/// streams. The script gets (env, channel, tx radio, rx radio).
template <typename Script>
void expect_stream_equivalence(Script script) {
  std::vector<Logic4> burst_seen;
  std::vector<Logic4> ref_seen;
  {
    Environment env(11);
    NoisyChannel ch(env, "ch");
    Radio tx(env, "tx", ch), rx(env, "rx", ch);
    QuietSink sink;
    rx.set_burst_rx_sink(&sink);
    script(env, ch, tx, rx);
    burst_seen = sink.seen;
  }
  {
    Environment env(11);
    NoisyChannel ch(env, "ch");
    ch.set_burst_transport_enabled(false);
    Radio tx(env, "tx", ch), rx(env, "rx", ch);
    Reference ref;
    rx.set_rx_sink([&](Logic4 v) { ref.seen.push_back(v); });
    script(env, ch, tx, rx);
    ref_seen = ref.seen;
  }
  ASSERT_EQ(burst_seen.size(), ref_seen.size());
  for (std::size_t i = 0; i < ref_seen.size(); ++i) {
    ASSERT_EQ(burst_seen[i], ref_seen[i]) << "sample " << i;
  }
}

TEST(BurstTransportTest, SoleTransmitterRunIsAcceptedAndCounted) {
  Environment env;
  NoisyChannel ch(env, "ch");
  Radio tx(env, "tx", ch);
  tx.transmit(5, BitVector(100, true));
  EXPECT_TRUE(ch.busy());
  EXPECT_EQ(ch.sense(5), Logic4::kOne);
  env.run(200_us);
  EXPECT_EQ(ch.bits_burst(), 100u);
  EXPECT_EQ(ch.bits_driven(), 100u);
  EXPECT_EQ(ch.burst_fallbacks(), 0u);
  EXPECT_FALSE(ch.busy());
  EXPECT_EQ(tx.bits_sent(), 100u);
}

TEST(BurstTransportTest, NoisyPacketsBurstViaErrorMask) {
  // BER > 0 no longer forces the per-bit path: the run pre-draws its
  // noise flips as an error mask and still transports in one burst.
  Environment env;
  ChannelConfig cfg;
  cfg.ber = 0.01;
  NoisyChannel ch(env, "ch", cfg);
  Radio tx(env, "tx", ch);
  tx.transmit(0, BitVector(10, true));
  env.run(20_us);
  EXPECT_EQ(ch.bits_burst(), 10u);
  EXPECT_EQ(ch.bits_driven(), 10u);
  EXPECT_EQ(ch.burst_fallbacks(), 0u);
}

TEST(BurstTransportTest, RefusedWhenDelayedOrDisabled) {
  {
    Environment env;
    ChannelConfig cfg;
    cfg.rf_delay = 2_us;
    NoisyChannel ch(env, "ch", cfg);
    Radio tx(env, "tx", ch);
    tx.transmit(0, BitVector(10, true));
    env.run(20_us);
    EXPECT_EQ(ch.bits_burst(), 0u);
  }
  {
    Environment env;
    NoisyChannel ch(env, "ch");
    ch.set_burst_transport_enabled(false);
    Radio tx(env, "tx", ch);
    tx.transmit(0, BitVector(10, true));
    env.run(20_us);
    EXPECT_EQ(ch.bits_burst(), 0u);
  }
}

TEST(BurstTransportTest, QuietSinkSeesExactPerBitStream) {
  expect_stream_equivalence([](Environment& env, NoisyChannel&, Radio& tx,
                               Radio& rx) {
    rx.enable_rx(7);
    env.run(5_us);  // a few silent samples first
    tx.transmit(7, BitVector::from_string("1011001110001011"));
    env.run(40_us);  // run + trailing silence
    rx.disable_rx();
  });
}

TEST(BurstTransportTest, MidRunEnableAndRetuneSeeTheRun) {
  expect_stream_equivalence([](Environment& env, NoisyChannel&, Radio& tx,
                               Radio& rx) {
    tx.transmit(7, BitVector(64, true));
    env.run(10_us);
    rx.enable_rx(3);   // wrong frequency: silence
    env.run(10_us);
    rx.retune_rx(7);   // joins the run mid-flight
    env.run(20_us);
    rx.retune_rx(4);   // leaves it again
    env.run(30_us);
    rx.disable_rx();
  });
}

TEST(BurstTransportTest, ContentionFallsBackToExactPerBit) {
  std::vector<Logic4> burst_seen;
  std::vector<Logic4> ref_seen;
  for (int mode = 0; mode < 2; ++mode) {
    Environment env(3);
    NoisyChannel ch(env, "ch");
    if (mode == 1) ch.set_burst_transport_enabled(false);
    Radio a(env, "a", ch), b(env, "b", ch), rx(env, "rx", ch);
    QuietSink sink;
    Reference ref;
    if (mode == 0) {
      rx.set_burst_rx_sink(&sink);
    } else {
      rx.set_rx_sink([&](Logic4 v) { ref.seen.push_back(v); });
    }
    rx.enable_rx(9);
    a.transmit(9, BitVector(60, true));
    env.run(20_us);
    b.transmit(9, BitVector(20, false));  // same freq: collision
    env.run(100_us);
    rx.disable_rx();  // materialise any lazily pending trailing silence
    if (mode == 0) {
      EXPECT_EQ(ch.burst_fallbacks(), 1u);
      burst_seen = sink.seen;
    } else {
      ref_seen = ref.seen;
    }
  }
  ASSERT_EQ(burst_seen.size(), ref_seen.size());
  EXPECT_EQ(burst_seen, ref_seen);
  // The overlap must actually have produced collisions.
  int collisions = 0;
  for (Logic4 v : burst_seen) collisions += v == Logic4::kX;
  EXPECT_GT(collisions, 0);
}

TEST(BurstTransportTest, CrossFrequencyContentionAlsoDegradesTheRun) {
  Environment env;
  NoisyChannel ch(env, "ch");
  Radio a(env, "a", ch), b(env, "b", ch);
  a.transmit(10, BitVector(50, true));
  env.run(5_us);
  EXPECT_TRUE(ch.burst_active(0));
  b.transmit(40, BitVector(10, true));  // different RF channel
  EXPECT_FALSE(ch.burst_active(0));     // single-transmitter premise broke
  env.run(100_us);
  EXPECT_EQ(ch.burst_fallbacks(), 1u);
  EXPECT_EQ(a.bits_sent(), 50u);
  EXPECT_EQ(b.bits_sent(), 10u);
  EXPECT_EQ(ch.bits_driven(), 60u);
}

TEST(BurstTransportTest, AbortMidRunStopsAtTheExactBit) {
  Environment env;
  NoisyChannel ch(env, "ch");
  Radio tx(env, "tx", ch);
  tx.transmit(3, BitVector(100, true));
  env.run(5_us);
  EXPECT_TRUE(tx.tx_busy());
  tx.abort_tx();
  EXPECT_FALSE(tx.tx_busy());
  EXPECT_EQ(ch.sense(3), Logic4::kZ);
  // Outside dispatch, the bit at exactly t=5us has fired: 6 bits on air
  // (matching the per-bit chain under run_until semantics).
  EXPECT_EQ(tx.bits_sent(), 6u);
  const auto sent = tx.bits_sent();
  env.run(10_us);
  EXPECT_EQ(tx.bits_sent(), sent);
}

TEST(BurstTransportTest, SetBerMidRunDegradesWithoutLosingBits) {
  Environment env(17);
  NoisyChannel ch(env, "ch");
  Radio tx(env, "tx", ch);
  tx.transmit(3, BitVector(100, true));
  env.run(10_us);
  ch.set_ber(0.5);  // remaining bits need per-instant noise draws
  EXPECT_EQ(ch.burst_fallbacks(), 1u);
  env.run(200_us);
  EXPECT_EQ(tx.bits_sent(), 100u);
  EXPECT_EQ(ch.bits_driven(), 100u);
  EXPECT_GT(ch.bits_flipped(), 0u);  // noise applied to the tail
}

TEST(BurstTransportTest, EagerSinkGetsEverySampleAtItsExactInstant) {
  Environment env;
  NoisyChannel ch(env, "ch");
  Radio tx(env, "tx", ch), rx(env, "rx", ch);
  EagerSink sink;
  sink.env = &env;
  rx.set_burst_rx_sink(&sink);
  rx.enable_rx(2);
  tx.transmit(2, BitVector::from_string("110101"));
  env.run(10_us);
  ASSERT_GE(sink.seen.size(), 7u);
  // Samples at 0.25, 1.25, ... us; the first six carry the bits.
  const char* expect = "110101";
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(sink.at[static_cast<std::size_t>(i)],
              SimTime::ns(250 + 1000u * static_cast<unsigned>(i)));
    EXPECT_EQ(sink.seen[static_cast<std::size_t>(i)],
              from_bit(expect[i] == '1'));
  }
  EXPECT_EQ(sink.seen[6], Logic4::kZ);
}

TEST(BurstTransportTest, LazySampleCounterMatchesPerBitCounter) {
  Environment env;
  NoisyChannel ch(env, "ch");
  Radio rx(env, "rx", ch);
  QuietSink sink;
  rx.set_burst_rx_sink(&sink);
  rx.enable_rx(0);
  env.run(10_us);
  EXPECT_EQ(rx.bits_sampled(), 10u);  // dormant, but the count is exact
  rx.disable_rx();
  env.run(10_us);
  EXPECT_EQ(rx.bits_sampled(), 10u);
  EXPECT_EQ(sink.seen.size(), 10u);
}

TEST(BurstTransportTest, BackToBackBurstsFromDoneCallback) {
  Environment env;
  NoisyChannel ch(env, "ch");
  Radio tx(env, "tx", ch);
  int sent_packets = 0;
  std::function<void()> send_next = [&] {
    ++sent_packets;
    if (sent_packets < 3) {
      tx.transmit(0, BitVector(10, true), send_next);
    }
  };
  tx.transmit(0, BitVector(10, true), send_next);
  env.run(100_us);
  EXPECT_EQ(sent_packets, 3);
  EXPECT_EQ(tx.bits_sent(), 30u);
  EXPECT_EQ(ch.bits_burst(), 30u);
}

}  // namespace
}  // namespace btsc::phy
