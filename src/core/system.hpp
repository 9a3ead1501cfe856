// BluetoothSystem: builds a complete simulated network and orchestrates
// the piconet life cycle phases the paper analyses (inquiry, page,
// connection, low-power modes).
//
// One object owns the environment, the optional VCD tracer, the noisy
// channel, every Device and its LinkManager. Device 0 is the prospective
// master; devices 1..N are slaves with random clock values and phases.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseband/device.hpp"
#include "lm/link_manager.hpp"
#include "phy/channel.hpp"
#include "sim/environment.hpp"
#include "sim/tracer.hpp"

namespace btsc::core {

struct SystemConfig {
  /// Slaves to instantiate; device 0 is always the prospective master.
  int num_slaves = 1;
  /// Channel bit error rate applied by the noisy channel.
  double ber = 0.0;
  /// Root seed of the whole system: the environment stream and, derived
  /// from it, the channel's noise stream.
  std::uint64_t seed = 1;
  /// Link controller configuration applied to every device.
  baseband::LcConfig lc;
  /// When set, a VCD waveform is written here (construct-before-run).
  std::optional<std::string> vcd_path;
  /// Modulator/demodulator latency of the RF blocks.
  sim::SimTime rf_delay = sim::SimTime::zero();
};

/// Outcome of one creation phase (inquiry or page).
struct PhaseResult {
  bool success = false;
  /// Time slots the phase took (up to the configured timeout).
  std::uint64_t slots = 0;
};

class BluetoothSystem {
 public:
  explicit BluetoothSystem(const SystemConfig& config);
  ~BluetoothSystem();

  BluetoothSystem(const BluetoothSystem&) = delete;
  BluetoothSystem& operator=(const BluetoothSystem&) = delete;

  sim::Environment& env() { return env_; }
  phy::NoisyChannel& channel() { return channel_; }
  baseband::Device& master() { return *devices_.front(); }
  baseband::Device& slave(int i) {
    return *devices_.at(static_cast<std::size_t>(i + 1));
  }
  lm::LinkManager& master_lm() { return *lms_.front(); }
  lm::LinkManager& slave_lm(int i) {
    return *lms_.at(static_cast<std::size_t>(i + 1));
  }
  int num_slaves() const { return static_cast<int>(devices_.size()) - 1; }

  /// Master inquires while every not-yet-connected slave scans. Returns
  /// when the configured number of responses arrived or on timeout.
  PhaseResult run_inquiry();

  /// Pages slave `i` (it must have been discovered first).
  PhaseResult run_page(int slave_index);

  /// Full creation: inquiry (expecting all slaves) + sequential pages.
  bool create_piconet();

  /// LT_ADDR a slave ended up with (0 if not connected).
  std::uint8_t lt_addr_of(int slave_index) {
    return slave(slave_index).lc().own_lt_addr();
  }

  void run(sim::SimTime duration) { env_.run(duration); }

  /// Closes the VCD trace (flushes the waveform file).
  void finish_trace();

  // ---- checkpoint / fork ----

  /// Serializes every mutable simulation layer (scenario flags, channel,
  /// per-device clock/radio/receiver/LC, link managers, kernel last) at a
  /// settled instant. Throws sim::SnapshotError if any pending timer is
  /// not re-armable (see Environment::save_state).
  std::vector<std::uint8_t> save_snapshot();

  /// Restores a snapshot into this system. The receiver must have been
  /// constructed through the identical construction path (same
  /// SystemConfig, including the seed) as the system that saved it; only
  /// mutable state is overwritten, the object graph is structural.
  void restore_snapshot(const std::vector<std::uint8_t>& bytes);

  /// Restarts both random streams from `seed`: the environment's and the
  /// channel's noise.
  void reseed(std::uint64_t seed) {
    env_.rng().reseed(seed);
    channel_.reseed(seed);
  }

  /// Re-randomises every slave's CLKN value and tick phase from the
  /// environment RNG, in construction draw order -- the per-replication
  /// randomness of the creation experiments, applied after reseeding the
  /// RNG at a fork boundary.
  void randomize_slave_clocks();

 private:
  sim::Environment env_;
  std::unique_ptr<sim::VcdTracer> tracer_;
  phy::NoisyChannel channel_;
  std::vector<std::unique_ptr<baseband::Device>> devices_;
  std::vector<std::unique_ptr<lm::LinkManager>> lms_;
  std::vector<bool> connected_;
};

}  // namespace btsc::core
