// Tests of the channel noise: the flip process itself (sim::FlipProcess
// and Rng::fill_error_mask) must have the statistics of independent
// per-bit flips at the configured BER, and the mask-batched transport
// (NoisyChannel masked runs) must reproduce the per-bit reference exactly
// -- same sample stream, same flip counts, same walker state -- for every
// packet geometry, BER, and mid-run perturbation (fallback, abort, BER
// change, checkpoint/restore), while never touching the environment
// stream the link controllers draw from.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/bitvector.hpp"
#include "sim/environment.hpp"
#include "sim/rng.hpp"
#include "sim/snapshot.hpp"
#include "sim/tracer.hpp"

namespace btsc::phy {
namespace {

using namespace btsc::sim::literals;
using btsc::sim::BitVector;
using btsc::sim::Environment;
using btsc::sim::Rng;
using btsc::sim::SimTime;

/// Air lengths of representative packets (ID, POLL, DH1, FHS, DH5) plus
/// word-boundary and tail cases for the mask's 64-bit chunking.
constexpr std::size_t kPacketLengths[] = {68,  126, 366, 494,  2871,
                                          1,   63,  64,  65,   127,
                                          128, 129, 255, 256};

constexpr double kBerGrid[] = {1e-5, 1e-3, 0.1, 0.5};

BitVector random_payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  BitVector v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back((rng.next() & 1u) != 0);
  return v;
}

// ---- the flip process: statistics and step/walk agreement ----

constexpr double kStatBers[] = {1e-3, 1.0 / 30.0, 0.5};

/// Two-sided 99.9% normal bound on a binomial count of n trials at p.
void expect_binomial(std::uint64_t count, std::uint64_t n, double p,
                     const std::string& what) {
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  EXPECT_NEAR(static_cast<double>(count), mean, 3.29 * sd)
      << what << " at p " << p << " over " << n << " trials";
}

TEST(NoiseMaskTest, FlipCountIsBinomial) {
  for (double p : kStatBers) {
    sim::FlipProcess flips(Rng(101), p);
    const std::uint64_t n = 2'000'000;
    std::uint64_t count = 0;
    for (std::uint64_t i = 0; i < n; ++i) count += flips.step() ? 1 : 0;
    expect_binomial(count, n, p, "flips");
  }
}

TEST(NoiseMaskTest, GapHistogramIsGeometric) {
  // Gaps between flips, binned into kBins ranges of width w plus a tail
  // bin, against P(b <= G < c) = (1-p)^b - (1-p)^c. Pearson chi-square
  // with kBins degrees of freedom; 99.9% critical value 32.91 at 12.
  constexpr int kBins = 12;
  for (double p : kStatBers) {
    sim::FlipProcess flips(Rng(202), p);
    const std::uint64_t w =
        static_cast<std::uint64_t>(std::ceil(0.25 / p));
    std::array<std::uint64_t, kBins + 1> observed{};
    std::uint64_t gaps = 0, gap = 0;
    const std::uint64_t n = p < 0.01 ? 8'000'000 : 2'000'000;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!flips.step()) {
        ++gap;
        continue;
      }
      if (i != gap) {  // the first flip has no gap before it to measure
        ++observed[std::min<std::uint64_t>(gap / w, kBins)];
        ++gaps;
      }
      gap = 0;
    }
    const double q = 1.0 - p;
    double chi2 = 0.0;
    for (int b = 0; b <= kBins; ++b) {
      const double lo = std::pow(q, static_cast<double>(w) * b);
      const double hi =
          b == kBins ? 0.0 : std::pow(q, static_cast<double>(w) * (b + 1));
      const double expected = static_cast<double>(gaps) * (lo - hi);
      ASSERT_GE(expected, 5.0) << "bin " << b << " too thin at p " << p;
      const double d = static_cast<double>(observed[b]) - expected;
      chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 32.91) << "p " << p << " over " << gaps << " gaps";
  }
}

TEST(NoiseMaskTest, FirstBitOfAPacketFlipsAtRateP) {
  // Packets alternate between a whole-run walk and per-bit steps; the
  // gap carries across each boundary, which must not bias bit 0.
  constexpr std::size_t kLen = 68;
  constexpr std::uint64_t kPackets = 400'000;
  for (double p : kStatBers) {
    sim::FlipProcess flips(Rng(303), p);
    std::uint64_t first = 0;
    std::array<std::uint64_t, 2> words{};
    for (std::uint64_t k = 0; k < kPackets; ++k) {
      if (k % 2 == 0) {
        words = {};
        flips.walk(words.data(), kLen);
        first += words[0] & 1u;
      } else {
        first += flips.step() ? 1 : 0;
        for (std::size_t i = 1; i < kLen; ++i) (void)flips.step();
      }
    }
    expect_binomial(first, kPackets, p, "bit-0 flips");
  }
}

TEST(NoiseMaskTest, WalkAndStepFlipTheSameBits) {
  // Any split of one bit sequence into walked runs and single steps
  // flips the same bits and ends in the same walker state.
  for (double p : {1e-5, 1e-3, 0.1, 0.5, 1.0}) {
    sim::FlipProcess walked(Rng(404), p), stepped(Rng(404), p);
    Rng lengths(5);
    for (int run = 0; run < 200; ++run) {
      const std::size_t n = static_cast<std::size_t>(lengths.uniform(1, 3000));
      std::vector<std::uint64_t> words((n + 63) / 64, 0);
      walked.walk(words.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(((words[i / 64] >> (i % 64)) & 1u) != 0, stepped.step())
            << "p " << p << " run " << run << " bit " << i;
      }
      ASSERT_EQ(walked.state(), stepped.state()) << "p " << p;
    }
  }
}

TEST(NoiseMaskTest, ShortcutBersConsumeNoDraws) {
  for (double ber : {0.0, -0.25, 1.0, 1.5}) {
    Rng rng(7);
    const auto before = rng.state();
    std::vector<std::uint64_t> words(3, 0xDEADBEEFDEADBEEFull);
    rng.fill_error_mask(words.data(), 130, ber);
    EXPECT_EQ(rng.state(), before) << "ber " << ber;
    const std::uint64_t expect = ber >= 1.0 ? ~0ull : 0ull;
    EXPECT_EQ(words[0], expect);
    EXPECT_EQ(words[1], expect);
    EXPECT_EQ(words[2], expect & 0x3ull);  // 130 % 64 == 2 tail bits
    sim::FlipProcess flips(Rng(7), ber);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(flips.step(), ber >= 1.0);
    EXPECT_EQ(flips.stream().state(), before) << "ber " << ber;
  }
}

TEST(NoiseMaskTest, FillErrorMaskIsAFreshWalk) {
  for (double ber : {1e-5, 1e-3, 0.1, 0.5}) {
    for (std::size_t n : kPacketLengths) {
      Rng filled(42);
      const std::size_t nwords = (n + 63) / 64;
      // One word past the mask: must stay untouched.
      std::vector<std::uint64_t> words(nwords + 1, ~0ull);
      filled.fill_error_mask(words.data(), n, ber);
      sim::FlipProcess walked(Rng(42), ber);
      std::vector<std::uint64_t> expect(nwords, 0);
      walked.walk(expect.data(), n);
      for (std::size_t w = 0; w < nwords; ++w) {
        ASSERT_EQ(words[w], expect[w]) << "ber " << ber << " len " << n;
      }
      EXPECT_EQ(words[nwords], ~0ull);
      EXPECT_EQ(filled.state(), walked.stream().state());
      if (n % 64 != 0) {
        EXPECT_EQ(words[nwords - 1] >> (n % 64), 0u) << "len " << n;
      }
    }
  }
}

// ---- channel layer: masked bursts vs the per-bit reference ----

/// Burst sink that accepts everything as quiet (no per-sample barrier);
/// expands bulk runs back into a per-sample stream for comparison.
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

struct SideResult {
  std::vector<Logic4> seen;
  std::array<std::uint64_t, 4> rng_state{};
  sim::FlipProcess::State noise;
  std::uint64_t bits_flipped = 0;
  std::uint64_t bits_driven = 0;
  std::uint64_t bits_burst = 0;
  std::uint64_t fallbacks = 0;
};

/// Runs `script(env, ch, tx, tx2, rx)` once with burst transport on and
/// once forced per-bit, and requires identical samples, flip counts and
/// final stream states. Returns the burst-side result for extra
/// assertions.
template <typename Script>
SideResult expect_noise_equivalence(ChannelConfig cfg, Script script,
                                    std::uint64_t seed = 11) {
  SideResult sides[2];
  for (int pass = 0; pass < 2; ++pass) {
    Environment env(seed);
    NoisyChannel ch(env, "ch", cfg);
    if (pass == 1) ch.set_burst_transport_enabled(false);
    Radio tx(env, "tx", ch), tx2(env, "tx2", ch), rx(env, "rx", ch);
    QuietSink sink;
    rx.set_burst_rx_sink(&sink);
    script(env, ch, tx, tx2, rx);
    sides[pass].seen = sink.seen;
    sides[pass].rng_state = env.rng().state();
    sides[pass].noise = ch.noise().state();
    sides[pass].bits_flipped = ch.bits_flipped();
    sides[pass].bits_driven = ch.bits_driven();
    sides[pass].bits_burst = ch.bits_burst();
    sides[pass].fallbacks = ch.burst_fallbacks();
  }
  const SideResult& burst = sides[0];
  const SideResult& ref = sides[1];
  EXPECT_EQ(burst.seen.size(), ref.seen.size());
  for (std::size_t i = 0; i < burst.seen.size() && i < ref.seen.size(); ++i) {
    if (burst.seen[i] != ref.seen[i]) {
      ADD_FAILURE() << "sample " << i << " diverged: burst "
                    << to_char(burst.seen[i]) << " vs per-bit "
                    << to_char(ref.seen[i]);
      break;
    }
  }
  EXPECT_EQ(burst.rng_state, ref.rng_state) << "environment stream diverged";
  EXPECT_EQ(burst.noise, ref.noise) << "noise walker diverged";
  EXPECT_EQ(burst.bits_flipped, ref.bits_flipped);
  EXPECT_EQ(burst.bits_driven, ref.bits_driven);
  EXPECT_EQ(ref.bits_burst, 0u);
  return burst;
}

TEST(NoiseMaskTest, NoisyPacketsMatchPerBitAcrossLengthsAndBers) {
  for (double ber : kBerGrid) {
    for (std::size_t n : kPacketLengths) {
      ChannelConfig cfg;
      cfg.ber = ber;
      const SimTime window = SimTime::us(n + 10);
      const SideResult burst = expect_noise_equivalence(
          cfg, [&](Environment& env, NoisyChannel&, Radio& tx, Radio&,
                   Radio& rx) {
            rx.enable_rx(7);
            env.run(3_us);
            tx.transmit(7, random_payload(n, 1000 + n));
            env.run(window);
            rx.disable_rx();
          });
      EXPECT_EQ(burst.bits_burst, n) << "ber " << ber << " len " << n;
      EXPECT_EQ(burst.fallbacks, 0u) << "ber " << ber << " len " << n;
    }
  }
}

TEST(NoiseMaskTest, ExtremeBersBurstWithoutDraws) {
  for (double ber : {0.0, 1.0}) {
    ChannelConfig cfg;
    cfg.ber = ber;
    const SideResult burst = expect_noise_equivalence(
        cfg,
        [&](Environment& env, NoisyChannel&, Radio& tx, Radio&, Radio& rx) {
          rx.enable_rx(3);
          tx.transmit(3, random_payload(130, 5));
          env.run(200_us);
          rx.disable_rx();
        });
    EXPECT_EQ(burst.bits_burst, 130u);
    EXPECT_EQ(burst.bits_flipped, ber >= 1.0 ? 130u : 0u);
  }
}

TEST(NoiseMaskTest, NoisyBurstLeavesEnvironmentStreamUntouched) {
  // Noise runs on the channel's own stream: a noisy packet, batched or
  // per-bit, draws nothing from the environment stream.
  ChannelConfig cfg;
  cfg.ber = 0.05;
  const SideResult burst = expect_noise_equivalence(
      cfg, [&](Environment& env, NoisyChannel&, Radio& tx, Radio&, Radio& rx) {
        const auto before = env.rng().state();
        rx.enable_rx(7);
        tx.transmit(7, random_payload(400, 77));
        env.run(500_us);
        rx.disable_rx();
        EXPECT_EQ(env.rng().state(), before);
      });
  EXPECT_EQ(burst.bits_burst, 400u);
  EXPECT_GT(burst.bits_flipped, 0u);
}

TEST(NoiseMaskTest, ForeignDrawMidRunCausesNoFallback) {
  // An unrelated consumer of the environment stream fires in the middle
  // of a masked run. It shares nothing with the noise, so the run stays
  // batched end to end and the draw sees the same stream either way.
  bool drew_burst = false, drew_ref = false;
  bool* drew = &drew_burst;
  ChannelConfig cfg;
  cfg.ber = 0.01;
  const SideResult burst = expect_noise_equivalence(
      cfg, [&](Environment& env, NoisyChannel&, Radio& tx, Radio&, Radio& rx) {
        rx.enable_rx(7);
        tx.transmit(7, random_payload(400, 77));
        env.schedule(150_us + SimTime::ns(500),
                     [&env, drew] { *drew = env.rng().bernoulli(0.25); });
        env.run(500_us);
        rx.disable_rx();
        drew = &drew_ref;
      });
  EXPECT_EQ(burst.fallbacks, 0u);
  EXPECT_EQ(burst.bits_burst, 400u);
  EXPECT_EQ(drew_burst, drew_ref) << "foreign draw saw a diverged stream";
}

TEST(NoiseMaskTest, ContentionMidMaskedRunMatchesPerBit) {
  // A second transmitter breaks the sole-transmitter premise mid-run:
  // the masked run re-walks its driven prefix, falls back, and from
  // there both noisy per-bit drives step the walker as the reference.
  ChannelConfig cfg;
  cfg.ber = 0.02;
  const SideResult burst = expect_noise_equivalence(
      cfg, [&](Environment& env, NoisyChannel&, Radio& tx, Radio& tx2,
               Radio& rx) {
        rx.enable_rx(7);
        tx.transmit(7, random_payload(300, 21));
        env.schedule(100_us, [&] { tx2.transmit(7, random_payload(80, 22)); });
        env.run(500_us);
        rx.disable_rx();
      });
  EXPECT_EQ(burst.fallbacks, 1u);
}

TEST(NoiseMaskTest, SetBerMidMaskedRunMatchesPerBit) {
  ChannelConfig cfg;
  cfg.ber = 0.1;
  const SideResult burst = expect_noise_equivalence(
      cfg, [&](Environment& env, NoisyChannel& ch, Radio& tx, Radio&,
               Radio& rx) {
        rx.enable_rx(5);
        tx.transmit(5, random_payload(256, 31));
        env.schedule(90_us + SimTime::ns(500), [&ch] { ch.set_ber(0.4); });
        env.run(400_us);
        rx.disable_rx();
      });
  EXPECT_EQ(burst.fallbacks, 1u);
}

TEST(NoiseMaskTest, AbortMidMaskedRunMatchesPerBit) {
  ChannelConfig cfg;
  cfg.ber = 0.05;
  const SideResult burst = expect_noise_equivalence(
      cfg, [&](Environment& env, NoisyChannel&, Radio& tx, Radio&, Radio& rx) {
        rx.enable_rx(5);
        tx.transmit(5, random_payload(256, 41));
        env.schedule(77_us + SimTime::ns(500), [&tx] { tx.abort_tx(); });
        env.run(400_us);
        rx.disable_rx();
      });
  // Only the elapsed prefix went out; no fallback (abort settles the
  // run directly) and the walker re-walked just that prefix.
  EXPECT_EQ(burst.fallbacks, 0u);
  EXPECT_LT(burst.bits_driven, 256u);
}

TEST(NoiseMaskTest, FlippedBitsCounterIsLazyDuringRun) {
  // Mid-run, bits_flipped() must report only the elapsed prefix of the
  // mask -- exactly what the per-bit reference would have counted.
  std::uint64_t mid_flips[2] = {0, 0};
  for (int pass = 0; pass < 2; ++pass) {
    Environment env(13);
    ChannelConfig cfg;
    cfg.ber = 0.3;
    NoisyChannel ch(env, "ch", cfg);
    if (pass == 1) ch.set_burst_transport_enabled(false);
    Radio tx(env, "tx", ch);
    tx.transmit(2, random_payload(200, 55));
    std::uint64_t& probe = mid_flips[pass];
    env.schedule(100_us + SimTime::ns(500),
                 [&ch, &probe] { probe = ch.bits_flipped(); });
    env.run(300_us);
  }
  EXPECT_EQ(mid_flips[0], mid_flips[1]);
  // 101 bits elapsed at the probe instant; at BER 0.3 some flips are
  // all but certain -- the lazy counter must not report zero.
  EXPECT_GT(mid_flips[0], 0u);
}

// ---- traced backfill: VCD bytes vs the per-bit reference ----

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs `script` against a VCD tracer with burst on/off and returns the
/// two files' contents for byte comparison.
template <typename Script>
std::pair<std::string, std::string> traced_pair(ChannelConfig cfg,
                                                Script script) {
  std::string out[2];
  for (int pass = 0; pass < 2; ++pass) {
    // Unique per process: ctest runs each traced TEST() as its own
    // process, in parallel, and they must not clobber each other's VCDs.
    const std::string path = ::testing::TempDir() + "btsc_noise_mask_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(pass) + ".vcd";
    {
      Environment env(17);
      sim::VcdTracer tracer(env, path);
      env.set_tracer(&tracer);
      NoisyChannel ch(env, "ch", cfg);
      if (pass == 1) ch.set_burst_transport_enabled(false);
      Radio tx(env, "tx", ch), rx(env, "rx", ch);
      script(env, ch, tx, rx, tracer);
      env.set_tracer(nullptr);
    }
    out[pass] = slurp(path);
    std::remove(path.c_str());
  }
  return {out[0], out[1]};
}

TEST(NoiseMaskTest, TracedNoisyBurstVcdByteIdenticalToPerBit) {
  ChannelConfig cfg;
  cfg.ber = 0.02;
  auto [burst, ref] = traced_pair(
      cfg, [&](Environment& env, NoisyChannel& ch, Radio& tx, Radio& rx,
               sim::VcdTracer& tracer) {
        rx.enable_rx(7);
        env.run(5_us);
        tx.transmit(7, random_payload(300, 71));
        env.run(400_us);
        if (ch.burst_transport_enabled()) {
          EXPECT_EQ(ch.bits_burst(), 300u) << "traced run was not batched";
        }
        ch.flush_trace_backfill();
        tracer.close();
      });
  EXPECT_FALSE(burst.empty());
  EXPECT_EQ(burst, ref);
}

TEST(NoiseMaskTest, TracerClosedMidRunBackfillsTheElapsedTail) {
  // finish_trace()-style shutdown while a traced run is still on the
  // air: the elapsed prefix must be materialised before the file
  // closes, making it byte-identical to a per-bit run cut at the same
  // instant.
  ChannelConfig cfg;
  cfg.ber = 0.05;
  auto [burst, ref] = traced_pair(
      cfg, [&](Environment& env, NoisyChannel& ch, Radio& tx, Radio& rx,
               sim::VcdTracer& tracer) {
        rx.enable_rx(4);
        tx.transmit(4, random_payload(500, 81));
        env.run(200_us);  // run still active (500-bit packet)
        ch.flush_trace_backfill();
        tracer.close();
      });
  EXPECT_FALSE(burst.empty());
  EXPECT_EQ(burst, ref);
}

TEST(NoiseMaskTest, TracedFallbackVcdByteIdenticalToPerBit) {
  ChannelConfig cfg;
  cfg.ber = 0.03;
  auto [burst, ref] = traced_pair(
      cfg, [&](Environment& env, NoisyChannel& ch, Radio& tx, Radio& rx,
               sim::VcdTracer& tracer) {
        rx.enable_rx(7);
        tx.transmit(7, random_payload(300, 91));
        // Degrade the traced run mid-flight (BER change): the backfill
        // covers the batched prefix, per-bit tracing the rest.
        env.schedule(100_us + SimTime::ns(500), [&ch] { ch.set_ber(0.2); });
        env.run(400_us);
        ch.flush_trace_backfill();
        tracer.close();
      });
  EXPECT_FALSE(burst.empty());
  EXPECT_EQ(burst, ref);
}

// ---- burst barrier timer vs idle()/stats, checkpoint mid-burst ----

/// Minimal phy-level orchestration mirroring BluetoothSystem's
/// checkpoint order: channel, radios, then kernel (rearm) last.
std::vector<std::uint8_t> save_phy(Environment& env, NoisyChannel& ch,
                                   Radio& tx, Radio& rx) {
  sim::SnapshotWriter w;
  ch.save_state(w);
  tx.save_state(w);
  rx.save_state(w);
  env.save_state(w);
  return w.take();
}

void restore_phy(const std::vector<std::uint8_t>& bytes, Environment& env,
                 NoisyChannel& ch, Radio& tx, Radio& rx) {
  sim::SnapshotReader r(bytes);
  ch.restore_state(r);
  tx.restore_state(r);
  rx.restore_state(r);
  env.restore_state(r);
  ASSERT_TRUE(r.at_end());
}

TEST(NoiseMaskTest, BurstBarrierTimerKeepsKernelBusyAndSurvivesCheckpoint) {
  ChannelConfig cfg;
  cfg.ber = 0.01;
  const std::size_t n = 400;

  Environment env(23);
  NoisyChannel ch(env, "ch", cfg);
  Radio tx(env, "tx", ch), rx(env, "rx", ch);
  QuietSink sink;
  rx.set_burst_rx_sink(&sink);
  rx.enable_rx(7);
  tx.transmit(7, random_payload(n, 61));
  env.run(150_us);

  // Mid-burst: the finish-barrier timer must be visible to the kernel.
  // idle() returning true here would let Environment::idle()-driven
  // loops stop with a packet still on the air.
  ASSERT_TRUE(ch.burst_active(tx.port()));
  EXPECT_FALSE(env.idle());
  const auto stats = env.scheduler_stats();
  EXPECT_GE(stats.live, 1u);

  const auto snap = save_phy(env, ch, tx, rx);

  // Twin: same construction path, restore mid-burst, run both to the
  // end. The twin's masked run is re-walked from the walker saved before
  // the run, so its remaining samples must equal the original's.
  Environment env2(23);
  NoisyChannel ch2(env2, "ch", cfg);
  Radio tx2(env2, "tx", ch2), rx2(env2, "rx", ch2);
  QuietSink sink2;
  rx2.set_burst_rx_sink(&sink2);
  restore_phy(snap, env2, ch2, tx2, rx2);
  ASSERT_TRUE(ch2.burst_active(tx2.port()));
  EXPECT_FALSE(env2.idle());

  const std::size_t already = sink.seen.size();
  env.run(SimTime::us(n));
  env2.run(SimTime::us(n));
  ASSERT_EQ(sink.seen.size() - already, sink2.seen.size());
  for (std::size_t i = 0; i < sink2.seen.size(); ++i) {
    ASSERT_EQ(sink.seen[already + i], sink2.seen[i]) << "post-restore sample "
                                                     << i;
  }
  EXPECT_EQ(env.rng().state(), env2.rng().state());
  EXPECT_EQ(ch.noise().state(), ch2.noise().state());
  EXPECT_EQ(ch.bits_flipped(), ch2.bits_flipped());
  EXPECT_EQ(ch.bits_burst(), ch2.bits_burst());
  EXPECT_TRUE(env.idle());
  EXPECT_TRUE(env2.idle());

  // Round-trip golden: the restored twin must serialize byte-equal.
  Environment env3(23);
  NoisyChannel ch3(env3, "ch", cfg);
  Radio tx3(env3, "tx", ch3), rx3(env3, "rx", ch3);
  restore_phy(snap, env3, ch3, tx3, rx3);
  EXPECT_EQ(save_phy(env3, ch3, tx3, rx3), snap);
}

TEST(NoiseMaskTest, TracedRunRefusesCheckpoint) {
  const std::string path = ::testing::TempDir() + "btsc_noise_mask_ckpt.vcd";
  {
    Environment env(29);
    sim::VcdTracer tracer(env, path);
    env.set_tracer(&tracer);
    ChannelConfig cfg;
    cfg.ber = 0.01;
    NoisyChannel ch(env, "ch", cfg);
    Radio tx(env, "tx", ch), rx(env, "rx", ch);
    tx.transmit(7, random_payload(300, 3));
    env.run(100_us);
    ASSERT_TRUE(ch.burst_active(tx.port()));
    sim::SnapshotWriter w;
    EXPECT_THROW(ch.save_state(w), sim::SnapshotError);
    ch.flush_trace_backfill();
    tracer.close();
    env.set_tracer(nullptr);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace btsc::phy
