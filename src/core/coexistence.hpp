// Two co-located piconets on one channel.
//
// The paper's channel resolver exists for exactly this case: "the
// collision between packets ... is possible when the piconet is not
// already created or when two or more piconets coexist". Each piconet
// hops pseudo-randomly over the 79 RF channels under its own master
// address and clock, so two piconets collide on ~1/79 of their slots;
// collided symbols resolve to 'X' and are garbled at the receivers.
// This scenario quantifies the resulting goodput loss (the subject of
// the paper's references [3]-[5]).
//
// The construction order (one environment seeded with config.seed, then
// the channel, then the clock draws in device order m0 s0 m1 s1 from
// that environment's RNG) fixes the study's random streams: changing it
// changes every coexistence result.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "baseband/device.hpp"
#include "lm/link_manager.hpp"
#include "phy/channel.hpp"
#include "sim/environment.hpp"

namespace btsc::core {

struct CoexistenceConfig {
  /// Root seed of the two-piconet system.
  std::uint64_t seed = 1;
  /// Channel bit error rate on the shared medium.
  double ber = 0.0;
  /// ACL packet type used by both links.
  baseband::PacketType data_packet_type = baseband::PacketType::kDm1;
  /// Modulator/demodulator latency of the medium. Zero (the paper's
  /// value) keeps TX/RX bit grids aligned.
  sim::SimTime rf_delay = sim::SimTime::zero();
};

/// Two master+slave pairs sharing one NoisyChannel. Piconet 0 and 1 are
/// created sequentially (the second forms while the first is live, so
/// its creation already experiences interference).
class TwoPiconets {
 public:
  explicit TwoPiconets(const CoexistenceConfig& config);
  ~TwoPiconets();

  sim::Environment& env() { return env_; }
  phy::NoisyChannel& channel() { return channel_; }
  baseband::Device& master(int piconet);
  baseband::Device& slave(int piconet);
  lm::LinkManager& master_lm(int piconet);
  lm::LinkManager& slave_lm(int piconet);

  /// Creates piconet `p` (inquiry + page with generous timeouts).
  /// Retries until success or `max_attempts` is exhausted.
  bool create(int piconet, int max_attempts = 4);

  void run(sim::SimTime duration) { env_.run(duration); }

  /// Restarts the environment and channel-noise streams from `seed`.
  void reseed(std::uint64_t seed) {
    env_.rng().reseed(seed);
    channel_.reseed(seed);
  }

  // ---- checkpoint / fork ----

  /// Serializes all mutable state (channel, devices, link managers,
  /// kernel last) at a settled instant; see BluetoothSystem.
  std::vector<std::uint8_t> save_snapshot();

  /// Restores into an identically constructed twin (same
  /// CoexistenceConfig, including the seed).
  void restore_snapshot(const std::vector<std::uint8_t>& bytes);

 private:
  sim::Environment env_;
  phy::NoisyChannel channel_;
  std::vector<std::unique_ptr<baseband::Device>> devices_;  // m0 s0 m1 s1
  std::vector<std::unique_ptr<lm::LinkManager>> lms_;
};

}  // namespace btsc::core
