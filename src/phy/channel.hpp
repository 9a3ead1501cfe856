// The noisy channel of the paper's Fig. 2.
//
// One module with one input per Bluetooth device and a resolved output:
//   - a device that is not transmitting drives 'Z' (high impedance);
//   - two or more simultaneous transmitters on the same RF channel produce
//     the undefined value 'X' (collision);
//   - channel noise inverts defined bits with probability BER, drawn from
//     the channel's own noise stream (a sim::FlipProcess seeded from the
//     environment's seed), so noise never consumes a draw of the stream
//     the link controllers use;
//   - the modulator/demodulator delay of the RF blocks is modelled as a
//     fixed latency between drive() and the value appearing on the medium.
//
// Unlike the paper's single-wire model, resolution is per RF channel
// (frequency 0..78): transmissions on different hop frequencies do not
// collide. Setting ChannelConfig::per_frequency = false restores the
// paper's stricter single-wire behaviour.
//
// Burst transport
// ---------------
// The per-bit drive()/sense() contract stays the reference semantics,
// but an uncontended single-transmitter packet can be registered as one
// *burst run* (begin_burst): the channel then answers sense() from the
// packed bit vector and run geometry instead of taking one drive event
// per microsecond, and notifies registered Listeners (the radios) when
// the medium changes so idle receivers can stop sampling entirely.
// A run is only accepted when it is provably equivalent to the per-bit
// path -- no RF delay and a silent medium -- and it falls back to
// per-bit scheduling the
// moment a second transmitter drives, the BER changes, or the
// transmitter aborts.
//
// Noise is one flip process over the bits the channel drives: a per-bit
// drive steps it once, a BER > 0 run walks it across the whole packet up
// front into an XOR error mask and exposes the corrupted copy as the
// run's bits. A run cut short (abort, fallback) restores the walker it
// saved at begin_burst and re-walks only the bits that were driven; the
// noise stream is private to the channel, so nothing else can have drawn
// from it in between, and burst == per-bit holds by construction. Traced
// runs reconstruct the bus waveform afterwards via the tracer's
// time-stamped backfill. docs/ARCHITECTURE.md ("Word-packed bit
// transport & burst delivery" and "Noise flip process & traced burst
// backfill") carries the full equivalence argument.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "phy/logic4.hpp"
#include "sim/bitvector.hpp"
#include "sim/environment.hpp"
#include "sim/module.hpp"
#include "sim/rng.hpp"
#include "sim/snapshot.hpp"
#include "sim/time.hpp"
#include "sim/tracer.hpp"

namespace btsc::phy {

struct ChannelConfig {
  /// Probability that a defined bit on the medium is inverted.
  double ber = 0.0;
  /// Modulator + demodulator latency (paper: "the delay of the modulator
  /// and demodulator RF blocks"). Zero keeps TX and RX bit grids aligned.
  sim::SimTime rf_delay = sim::SimTime::zero();
  /// Resolve collisions per RF channel (true) or on one shared wire as in
  /// the paper's figure (false).
  bool per_frequency = true;
  /// Number of RF channels (79 in the 2.4 GHz ISM band).
  int num_channels = 79;
  /// Enables the burst fast path (word-packed runs + idle-receiver
  /// skipping). Defaults to the process-wide switch; per-instance
  /// override via NoisyChannel::set_burst_transport_enabled(). Purely a
  /// performance mode: results are bit-identical either way.
  bool burst_transport = true;
};

/// Port handle returned by attach(); identifies a device on the channel.
using PortId = int;

class NoisyChannel final : public sim::Module,
                           public sim::Snapshotable,
                           public sim::RearmHandler {
 public:
  /// Burst-transport callbacks implemented by the Radio that owns a
  /// port. Every medium transition is delivered in two phases so lazy
  /// consumers can materialise pending samples against the *old* medium
  /// state before reacting to the new one: first rx_sync() on every
  /// listening port, then the state change, then rx_reevaluate().
  class Listener {
   public:
    /// Phase 1: consume every sample instant at or before now() under
    /// the medium state as it still is.
    virtual void rx_sync() = 0;
    /// Phase 2: the medium changed; pick a new sampling mode.
    virtual void rx_reevaluate() = 0;
    /// The port's own burst run degraded to per-bit: `driven` bits are
    /// already on the air (the channel holds the last one); the owner
    /// must schedule the remainder as per-bit drives.
    virtual void tx_burst_fallback(std::size_t driven) = 0;

   protected:
    ~Listener() = default;
  };

  NoisyChannel(sim::Environment& env, std::string name,
               ChannelConfig config = {});
  ~NoisyChannel() override;

  const ChannelConfig& config() const { return config_; }

  /// Changing the BER mid-run degrades an active burst run to per-bit
  /// first: its mask was walked at the old BER.
  void set_ber(double ber);

  /// Restarts the noise stream from `seed` (the environment's seed at
  /// construction): Rng::derive_stream_seed(seed, kNoiseStream, 0).
  void reseed(std::uint64_t seed);

  /// Stream id of the noise under the system seed.
  static constexpr std::uint64_t kNoiseStream = 0x4E4F495345ull;  // "NOISE"

  /// The noise walker (stream + gap), for equivalence checks.
  const sim::FlipProcess& noise() const { return noise_; }

  // ---- burst transport switches ----

  /// Process-wide default for newly constructed channels (the
  /// `--no-burst` escape hatch to the per-bit reference path).
  /// Thread-safe.
  static void set_burst_transport_default(bool enabled);
  static bool burst_transport_default();

  /// Per-instance switch. Disabling degrades an active run to per-bit.
  void set_burst_transport_enabled(bool enabled);
  bool burst_transport_enabled() const { return config_.burst_transport; }

  /// Registers a device; `device_name` is used for tracing/diagnostics.
  PortId attach(const std::string& device_name);
  int num_ports() const { return static_cast<int>(ports_.size()); }

  /// RearmHandler: rebuilds pending rf_delay apply timers from their
  /// descriptors after a snapshot restore.
  void rearm_timer(std::uint16_t kind, std::uint64_t payload,
                   sim::SimTime when) override;

  /// Wires the burst-transport listener of `port` (done by the Radio).
  void set_listener(PortId port, Listener* listener);

  /// Declares the receiver of `port` tuned to `freq` (-1: not
  /// listening). Listening ports get the two-phase medium
  /// notifications.
  void set_listening(PortId port, int freq);

  /// Drives a value from `port` on RF channel `freq`. kZ releases the
  /// medium. Takes effect after the configured rf_delay. Noise is applied
  /// once per driven bit, matching the paper's "inversion of the bit in
  /// the channel".
  void drive(PortId port, int freq, Logic4 value);

  /// Resolved value seen by a receiver tuned to `freq`.
  Logic4 sense(int freq) const;

  /// True if any port is currently driving a defined value (any freq).
  bool busy() const;

  // ---- burst runs (called by the owning Radio) ----

  /// Registers the whole of `bits` as one uncontended run from `port` on
  /// `freq`, one bit per `period` starting now. Returns false -- and
  /// changes nothing -- when the run cannot be batched (burst transport
  /// off, RF delay, or a non-silent medium); the caller must then drive
  /// per-bit. `bits` must stay alive
  /// and unchanged until the run ends. On success the first bit is on
  /// the medium immediately (as a per-bit drive would be). BER > 0 runs
  /// pre-apply noise as an error mask walked over the whole run;
  /// receivers see the corrupted copy through rx_medium()/sense().
  bool begin_burst(PortId port, int freq, const sim::BitVector& bits,
                   sim::SimTime period);

  /// True while `port` owns the active burst run.
  bool burst_active(PortId port) const {
    return run_.active && run_.port == port;
  }

  /// Bits of `port`'s active run already on the air (event-order exact).
  std::size_t burst_elapsed(PortId port) const {
    assert(burst_active(port));
    (void)port;
    return run_bits_elapsed();
  }

  /// Completes `port`'s run at its natural end (caller's end-of-packet
  /// timer): consumes listeners, releases the medium, reports the number
  /// of bits driven.
  std::size_t finish_burst(PortId port);

  /// Aborts `port`'s run mid-flight and releases the medium; returns the
  /// number of bits that made it onto the air.
  std::size_t abort_burst(PortId port);

  // ---- medium view for receivers ----

  /// What a receiver tuned to `freq` currently faces.
  struct RxMedium {
    /// Some port drives a defined value visible at this frequency
    /// through per-bit drives (collisions and noisy transmissions live
    /// here) -- the receiver must sample per bit.
    bool live = false;
    /// Active burst run visible at this frequency (nullptr when none).
    const sim::BitVector* run_bits = nullptr;
    sim::SimTime run_start;
    sim::SimTime run_period;
  };
  RxMedium rx_medium(int freq) const;

  // ---- checkpointing ----

  /// Saves/restores the mutable channel state: BER and burst switch,
  /// the noise walker, per-port drive/listening state, the active run's
  /// geometry and the noise/collision counters. The run's packed bits
  /// are NOT part of the stream -- they live in the transmitting Radio's
  /// tx buffer, and that radio re-links them via rebind_run_bits() during
  /// its own restore (the restore order guarantees it runs after the
  /// channel's). A masked run stores the walker as it was before the
  /// run: the error mask is a pure function of (walker, BER, length) and
  /// is re-walked on restore. Throws sim::SnapshotError while a traced
  /// run holds the tracer -- the waveform buffer is not snapshotable.
  void save_state(sim::SnapshotWriter& w) const override;
  void restore_state(sim::SnapshotReader& r) override;

  /// Re-links the active run's bit storage (the transmitter's clean
  /// bits) after a restore; re-walks the error mask for masked runs.
  /// Only valid while `port` owns the restored run.
  void rebind_run_bits(PortId port, const sim::BitVector* bits);

  // ---- tracing (called by the owning system) ----

  /// Materialises the backfilled bus transitions of a still-active
  /// traced run up to now(). Must be called before the tracer is closed
  /// or detached, or the run's waveform tail is lost.
  void flush_trace_backfill();

  // ---- diagnostics ----
  std::uint64_t bits_driven() const { return bits_driven_; }
  std::uint64_t bits_flipped() const {
    std::uint64_t flips = bits_flipped_;
    // Flips of an in-flight masked run are accounted lazily: only the
    // elapsed prefix of the mask has "happened" yet.
    if (run_.active && run_.masked) flips += mask_flips_before(run_bits_elapsed());
    return flips;
  }
  std::uint64_t collision_samples() const { return collision_samples_; }
  /// Bits transported through accepted burst runs (perf telemetry).
  std::uint64_t bits_burst() const { return bits_burst_; }
  /// Runs degraded to per-bit by contention/abort/reconfiguration.
  std::uint64_t burst_fallbacks() const { return burst_fallbacks_; }

 private:
  struct Run {
    bool active = false;
    /// BER > 0: noise flips pre-applied via mask_, bits points at the
    /// channel-owned corrupted copy (noisy_).
    bool masked = false;
    PortId port = -1;
    int freq = 0;
    /// What the medium shows (noisy_ for masked runs).
    const sim::BitVector* bits = nullptr;
    /// The transmitter's storage, as passed to begin_burst (equal to
    /// `bits` for unmasked runs). Needed for snapshot rebinding.
    const sim::BitVector* clean = nullptr;
    sim::SimTime start;
    sim::SimTime period;
  };

  // Descriptor kind of the tagged rf_delay apply timers (snapshots
  // carry them; see rearm_timer).
  static constexpr std::uint16_t kTimerApply = 1;

  static std::uint64_t pack_apply(PortId port, int freq, Logic4 value);
  void schedule_apply(std::uint64_t payload, sim::SimTime when);
  void apply(PortId port, int freq, Logic4 value);
  void refresh_trace();

  /// Saves the walker in mask_base_, walks it across `bits` into mask_
  /// and points the run at the corrupted copy noisy_.
  void arm_masked_run(const sim::BitVector& bits);

  /// Number of set bits in the first `k` mask positions.
  std::size_t mask_flips_before(std::size_t k) const;

  /// Emits the net bus transitions of run bits [backfilled_, k) at their
  /// per-bit instants (VcdTracer::change_at under the open hold).
  void backfill_to(std::size_t k);

  /// Bits of the active run already on the air, honouring the event
  /// tiebreak: a bit whose drive instant equals now() counts only when
  /// the kernel is not mid-dispatch (outside dispatch every same-instant
  /// event has fired; inside, the virtual drive event is ordered after
  /// the currently running one).
  std::size_t run_bits_elapsed() const;

  /// Current run bit visible to a same-instant observer (sense()).
  Logic4 run_value_now() const;

  /// Degrades the active run to per-bit scheduling (two-phase listener
  /// notification + tx_burst_fallback on the owner).
  void fallback_run();

  /// Tears the run down after consuming listeners; `driven` bits are
  /// accounted and the port is left driving `last` (kZ to release).
  std::size_t settle_run(std::size_t driven, Logic4 last);

  void notify_sync();
  void notify_reevaluate();

  /// True when any port drives a defined value visible at `freq` via
  /// per-bit drives (the run does not count).
  bool live_at(int freq) const;

  ChannelConfig config_;
  sim::FlipProcess noise_;  // stepped per defined bit, walked per run
  struct Port {
    std::string name;
    int freq = -1;
    Logic4 value = Logic4::kZ;
    Listener* listener = nullptr;
    int rx_freq = -1;  // -1: not listening
  };
  std::vector<Port> ports_;
  bool rearm_registered_ = false;
  Run run_;
  // Masked-run machinery (meaningful only while run_.masked). The
  // buffers keep their capacity across runs, so steady-state masked
  // bursts allocate nothing.
  sim::BitVector mask_;   // XOR error mask of the active masked run
  sim::BitVector noisy_;  // run_.clean ^ mask_, what the medium shows
  sim::FlipProcess::State mask_base_;  // walker before the run
  // Traced-run backfill (meaningful only while a hold is open).
  bool trace_hold_ = false;
  std::size_t backfilled_ = 0;  // run bits already backfilled
  int defined_ports_ = 0;  // ports currently driving a defined value
  bool notifying_ = false;
  std::uint64_t bits_driven_ = 0;
  std::uint64_t bits_flipped_ = 0;
  mutable std::uint64_t collision_samples_ = 0;
  std::uint64_t bits_burst_ = 0;
  std::uint64_t burst_fallbacks_ = 0;
  // Traced view of the fully-resolved wire (all frequencies), matching the
  // "channel" net of the paper's figure: its trace id (set when traced)
  // and current value.
  std::optional<sim::TraceId> bus_trace_;
  Logic4 bus_value_ = Logic4::kZ;
};

}  // namespace btsc::phy
