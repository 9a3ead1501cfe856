#include "phy/channel.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "sim/environment.hpp"
#include "sim/rng.hpp"
#include "sim/tracer.hpp"

namespace btsc::phy {

namespace {

/// Process-wide default of ChannelConfig::burst_transport (the escape
/// hatch flipped by `--no-burst` style switches before systems are
/// built; sweeps read it once per channel construction).
std::atomic<bool>& burst_default() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

}  // namespace

void NoisyChannel::set_burst_transport_default(bool enabled) {
  burst_default().store(enabled, std::memory_order_relaxed);
}

bool NoisyChannel::burst_transport_default() {
  return burst_default().load(std::memory_order_relaxed);
}

NoisyChannel::NoisyChannel(sim::Environment& env, std::string name,
                           ChannelConfig config)
    : Module(env, std::move(name)),
      config_(config),
      noise_(sim::Rng(sim::Rng::derive_stream_seed(env.seed(), kNoiseStream,
                                                   0)),
             config.ber) {
  if (config_.ber < 0.0 || config_.ber > 1.0) {
    throw std::invalid_argument("NoisyChannel: BER outside [0,1]");
  }
  if (config_.num_channels <= 0) {
    throw std::invalid_argument("NoisyChannel: need at least one RF channel");
  }
  config_.burst_transport =
      config_.burst_transport && burst_transport_default();
  if (sim::VcdTracer* t = env.tracer()) {
    bus_trace_ = t->declare(child_name("bus"), to_char(bus_value_));
  }
  if (config_.rf_delay != sim::SimTime::zero()) {
    // rf_delay apply timers are scheduled through the tagged descriptor
    // path so a checkpoint can carry them (kTimerApply, replayed by
    // rearm_timer). Dispatch semantics are identical to a plain
    // schedule().
    env.register_rearm(this->name() + ".rf", this, this);
    rearm_registered_ = true;
  }
}

NoisyChannel::~NoisyChannel() {
  if (rearm_registered_) env().unregister_rearm(this);
}

void NoisyChannel::set_ber(double ber) {
  if (run_.active) fallback_run();
  config_.ber = ber;
  noise_.set_p(ber);
}

void NoisyChannel::reseed(std::uint64_t seed) {
  noise_.reseed(sim::Rng::derive_stream_seed(seed, kNoiseStream, 0));
}

void NoisyChannel::set_burst_transport_enabled(bool enabled) {
  if (!enabled && run_.active) fallback_run();
  config_.burst_transport = enabled;
}

PortId NoisyChannel::attach(const std::string& device_name) {
  ports_.push_back(Port{device_name, -1, Logic4::kZ, nullptr, -1});
  return static_cast<PortId>(ports_.size() - 1);
}

void NoisyChannel::set_listener(PortId port, Listener* listener) {
  ports_.at(static_cast<std::size_t>(port)).listener = listener;
}

void NoisyChannel::set_listening(PortId port, int freq) {
  ports_.at(static_cast<std::size_t>(port)).rx_freq = freq;
}

void NoisyChannel::drive(PortId port, int freq, Logic4 value) {
  if (port < 0 || port >= num_ports()) {
    throw std::out_of_range("NoisyChannel::drive: bad port");
  }
  if (value != Logic4::kZ &&
      (freq < 0 || freq >= config_.num_channels)) {
    throw std::out_of_range("NoisyChannel::drive: bad frequency");
  }
  if (config_.rf_delay == sim::SimTime::zero()) {
    apply(port, freq, value);
  } else {
    schedule_apply(pack_apply(port, freq, value),
                   env().now() + config_.rf_delay);
  }
}

std::uint64_t NoisyChannel::pack_apply(PortId port, int freq, Logic4 value) {
  // [port:32][freq+1:16][value:8]; freq = -1 (release) maps to 0.
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(port)) << 32) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(freq + 1))
          << 8) |
         static_cast<std::uint64_t>(static_cast<std::uint8_t>(value));
}

void NoisyChannel::schedule_apply(std::uint64_t payload, sim::SimTime when) {
  const auto port = static_cast<PortId>(
      static_cast<std::uint32_t>(payload >> 32));
  const int freq = static_cast<int>((payload >> 8) & 0xFFFF) - 1;
  const auto value = static_cast<Logic4>(payload & 0xFF);
  env().schedule_tagged(when - env().now(), kTimerApply, payload,
                        [this, port, freq, value] {
                          apply(port, freq, value);
                        },
                        this);
}

void NoisyChannel::rearm_timer(std::uint16_t kind, std::uint64_t payload,
                               sim::SimTime when) {
  if (kind != kTimerApply) {
    throw sim::SnapshotError("NoisyChannel: bad timer kind " +
                             std::to_string(kind));
  }
  schedule_apply(payload, when);
}

void NoisyChannel::apply(PortId port, int freq, Logic4 value) {
  assert(!(run_.active && port == run_.port) &&
         "per-bit drive from the port that owns the burst run");
  // A second transmitter while a burst run is in flight: the
  // single-transmitter premise broke, so the run degrades to exact
  // per-bit scheduling before this drive lands.
  if (run_.active && is_defined(value)) fallback_run();

  Logic4 v = value;
  if (is_defined(v)) {
    ++bits_driven_;
    if (noise_.step()) {
      v = invert(v);
      ++bits_flipped_;
    }
  }
  Port& p = ports_[static_cast<std::size_t>(port)];
  const bool was_defined = is_defined(p.value);
  const bool now_defined = is_defined(v);
  p.freq = freq;
  p.value = v;
  if (was_defined != now_defined) {
    defined_ports_ += now_defined ? 1 : -1;
    // The medium at this frequency appeared or vanished: let lazy
    // receivers materialise their pending samples against the old state
    // and re-pick their sampling mode.
    notify_sync();
    notify_reevaluate();
  }
  refresh_trace();
}

Logic4 NoisyChannel::sense(int freq) const {
  Logic4 acc = Logic4::kZ;
  if (run_.active && (!config_.per_frequency || freq == run_.freq)) {
    acc = run_value_now();
  }
  for (const Port& p : ports_) {
    if (p.value == Logic4::kZ) continue;
    if (config_.per_frequency && p.freq != freq) continue;
    acc = resolve(acc, p.value);
  }
  if (acc == Logic4::kX) ++collision_samples_;
  return acc;
}

bool NoisyChannel::busy() const {
  if (run_.active) return true;
  return defined_ports_ > 0;
}

bool NoisyChannel::live_at(int freq) const {
  if (defined_ports_ == 0) return false;
  if (!config_.per_frequency) return true;
  for (const Port& p : ports_) {
    if (is_defined(p.value) && p.freq == freq) return true;
  }
  return false;
}

NoisyChannel::RxMedium NoisyChannel::rx_medium(int freq) const {
  RxMedium m;
  m.live = live_at(freq);
  if (run_.active && (!config_.per_frequency || freq == run_.freq)) {
    m.run_bits = run_.bits;
    m.run_start = run_.start;
    m.run_period = run_.period;
  }
  return m;
}

// ---------------------------------------------------------------------------
// Burst runs
// ---------------------------------------------------------------------------

bool NoisyChannel::begin_burst(PortId port, int freq,
                               const sim::BitVector& bits,
                               sim::SimTime period) {
  if (port < 0 || port >= num_ports()) {
    throw std::out_of_range("NoisyChannel::begin_burst: bad port");
  }
  if (freq < 0 || freq >= config_.num_channels) {
    throw std::out_of_range("NoisyChannel::begin_burst: bad frequency");
  }
  // Equivalence gate: a run is accepted only when the batched loop is
  // provably identical to per-bit drives -- aligned drive instants (no
  // RF delay) and nobody else on the air. BER > 0 is not refused: the
  // noise walker is walked across the run up front (arm_masked_run).
  if (!config_.burst_transport || bits.empty() ||
      config_.rf_delay != sim::SimTime::zero() || run_.active ||
      defined_ports_ > 0) {
    return false;
  }
  notify_sync();
  run_.active = true;
  run_.port = port;
  run_.freq = freq;
  run_.bits = &bits;
  run_.clean = &bits;
  run_.start = env().now();
  run_.period = period;
  if (config_.ber > 0.0) arm_masked_run(bits);
  sim::VcdTracer* tracer = env().tracer();
  if (tracer != nullptr && bus_trace_) {
    // Bus transitions for the run's bits are reconstructed after the
    // fact (backfill_to); the hold keeps the tracer from streaming out
    // anything inside the run's window until they have landed.
    tracer->begin_hold();
    trace_hold_ = true;
    backfilled_ = 0;
  }
  ports_[static_cast<std::size_t>(port)].freq = freq;
  notify_reevaluate();
  return true;
}

void NoisyChannel::arm_masked_run(const sim::BitVector& bits) {
  mask_base_ = noise_.state();
  const std::size_t n = bits.size();
  mask_.clear();
  mask_.append_zeros(n);
  noise_.walk(mask_.words_mut(), n);
  noisy_.clear();
  noisy_.append(bits);
  // Both vectors keep their tail bits zero, so whole-word XOR preserves
  // the invariant on the noisy copy.
  std::uint64_t* nw = noisy_.words_mut();
  const std::uint64_t* mw = mask_.words();
  for (std::size_t w = 0; w < noisy_.num_words(); ++w) nw[w] ^= mw[w];
  run_.bits = &noisy_;
  run_.masked = true;
}

std::size_t NoisyChannel::mask_flips_before(std::size_t k) const {
  assert(run_.masked && k <= mask_.size());
  std::size_t flips = 0;
  const std::uint64_t* mw = mask_.words();
  for (std::size_t w = 0; k > 0; ++w) {
    const std::uint64_t word = k >= 64 ? mw[w] : (mw[w] & ((1ull << k) - 1));
    flips += static_cast<std::size_t>(std::popcount(word));
    k -= k >= 64 ? 64 : k;
  }
  return flips;
}

std::size_t NoisyChannel::run_bits_elapsed() const {
  assert(run_.active);
  const std::uint64_t d = env().now().as_ns() - run_.start.as_ns();
  const std::uint64_t p = run_.period.as_ns();
  // Bits with a drive instant strictly before now have fired in any
  // event order; a bit exactly at now has fired only when the kernel is
  // not mid-dispatch (its virtual drive event would be ordered after
  // the currently running event). Bit 0 is driven synchronously by
  // begin_burst, so at least one bit is always on the air.
  std::uint64_t n = env().dispatching() ? (d + p - 1) / p : d / p + 1;
  if (n == 0) n = 1;
  const std::size_t len = run_.bits->size();
  return n < len ? static_cast<std::size_t>(n) : len;
}

Logic4 NoisyChannel::run_value_now() const {
  return from_bit((*run_.bits)[run_bits_elapsed() - 1]);
}

void NoisyChannel::backfill_to(std::size_t k) {
  assert(trace_hold_ && run_.active && k >= 1);
  sim::VcdTracer* tracer = env().tracer();
  if (tracer == nullptr) return;  // detached mid-run; nowhere to write
  const sim::BitVector& bits = *run_.bits;
  // Emit only net transitions at their per-bit instants -- exactly the
  // changes refresh_trace() would have reported bit by bit (bus_value_
  // still holds the pre-run value while backfilled_ == 0).
  Logic4 prev = backfilled_ == 0 ? bus_value_
                                 : from_bit(bits[backfilled_ - 1]);
  const std::uint64_t start_ns = run_.start.as_ns();
  const std::uint64_t period_ns = run_.period.as_ns();
  for (std::size_t i = backfilled_; i < k; ++i) {
    const Logic4 v = from_bit(bits[i]);
    if (v != prev) {
      tracer->change_at(*bus_trace_, to_char(v),
                        start_ns + period_ns * static_cast<std::uint64_t>(i));
    }
    prev = v;
  }
  backfilled_ = k;
}

void NoisyChannel::flush_trace_backfill() {
  if (!trace_hold_) return;
  backfill_to(run_bits_elapsed());
}

std::size_t NoisyChannel::settle_run(std::size_t driven, Logic4 last) {
  assert(driven >= 1);
  if (run_.masked) {
    if (driven < run_.bits->size()) {
      // Only `driven` bits went on the air: re-walk the noise over just
      // those, from the walker saved before the run, so the bits still
      // to come draw their flips where the per-bit path would.
      noise_.set_state(mask_base_);
      noise_.walk(nullptr, driven);
    }
    bits_flipped_ += mask_flips_before(driven);
  }
  if (trace_hold_) {
    backfill_to(driven);
    // Leave the traced bus value where the per-bit path would hold it
    // after bit driven-1, so the settle-time refresh_trace() reports (or
    // skips) exactly the same change.
    bus_value_ = from_bit((*run_.bits)[driven - 1]);
    if (sim::VcdTracer* tracer = env().tracer()) tracer->end_hold();
    trace_hold_ = false;
  }
  bits_driven_ += driven;
  bits_burst_ += driven;
  Port& p = ports_[static_cast<std::size_t>(run_.port)];
  assert(p.value == Logic4::kZ);
  p.value = last;
  p.freq = run_.freq;
  if (is_defined(last)) ++defined_ports_;
  run_ = Run{};
  return driven;
}

std::size_t NoisyChannel::finish_burst(PortId port) {
  assert(burst_active(port));
  (void)port;
  notify_sync();
  const std::size_t driven = settle_run(run_.bits->size(), Logic4::kZ);
  notify_reevaluate();
  refresh_trace();
  return driven;
}

std::size_t NoisyChannel::abort_burst(PortId port) {
  assert(burst_active(port));
  (void)port;
  notify_sync();
  const std::size_t driven = settle_run(run_bits_elapsed(), Logic4::kZ);
  notify_reevaluate();
  refresh_trace();
  return driven;
}

void NoisyChannel::fallback_run() {
  assert(run_.active);
  ++burst_fallbacks_;
  Listener* owner = ports_[static_cast<std::size_t>(run_.port)].listener;
  notify_sync();
  const std::size_t driven = run_bits_elapsed();
  const Logic4 last = from_bit((*run_.bits)[driven - 1]);
  settle_run(driven, last);
  // The owner reschedules the remaining bits as exact per-bit drives
  // before receivers re-pick their modes (they will see a live medium).
  assert(owner != nullptr);
  owner->tx_burst_fallback(driven);
  notify_reevaluate();
  refresh_trace();
}

void NoisyChannel::notify_sync() {
  assert(!notifying_ && "reentrant medium notification");
  notifying_ = true;
  for (Port& p : ports_) {
    if (p.listener != nullptr && p.rx_freq >= 0) p.listener->rx_sync();
  }
  notifying_ = false;
}

void NoisyChannel::notify_reevaluate() {
  for (Port& p : ports_) {
    if (p.listener != nullptr && p.rx_freq >= 0) p.listener->rx_reevaluate();
  }
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

void NoisyChannel::save_state(sim::SnapshotWriter& w) const {
  if (trace_hold_) {
    throw sim::SnapshotError(
        "NoisyChannel: cannot checkpoint while a traced burst run holds "
        "the tracer (combine --trace with checkpoints only under "
        "per-bit transport)");
  }
  w.begin_section(sim::snapshot_tag("CHAN"));
  w.f64(config_.ber);
  w.b(config_.burst_transport);
  // A masked run stores the walker it started from: the mask and the
  // walker after it are a pure function of (walker, BER, length) and are
  // re-walked on restore.
  const sim::FlipProcess::State noise =
      run_.active && run_.masked ? mask_base_ : noise_.state();
  for (std::uint64_t v : noise.rng) w.u64(v);
  w.u64(noise.gap);
  sim::save_seq(w, ports_.size(), [&](std::size_t i) {
    const Port& p = ports_[i];
    w.u32(static_cast<std::uint32_t>(p.freq));
    w.u8(static_cast<std::uint8_t>(p.value));
    w.u32(static_cast<std::uint32_t>(p.rx_freq));
  });
  w.b(run_.active);
  if (run_.active) {
    w.u32(static_cast<std::uint32_t>(run_.port));
    w.u32(static_cast<std::uint32_t>(run_.freq));
    w.time(run_.start);
    w.time(run_.period);
    w.b(run_.masked);
  }
  w.u64(bits_driven_);
  w.u64(bits_flipped_);
  w.u64(collision_samples_);
  w.u64(bits_burst_);
  w.u64(burst_fallbacks_);
  w.b(bus_trace_.has_value());
  if (bus_trace_) w.u8(static_cast<std::uint8_t>(bus_value_));
  w.end_section();
}

void NoisyChannel::restore_state(sim::SnapshotReader& r) {
  // In-place restore hygiene: release a tracer hold belonging to the
  // state being overwritten.
  if (trace_hold_) {
    if (sim::VcdTracer* tracer = env().tracer()) tracer->end_hold();
    trace_hold_ = false;
  }
  r.enter_section(sim::snapshot_tag("CHAN"));
  config_.ber = r.f64();
  config_.burst_transport = r.b();
  noise_.set_p(config_.ber);
  sim::FlipProcess::State noise;
  for (std::uint64_t& v : noise.rng) v = r.u64();
  noise.gap = r.u64();
  noise_.set_state(noise);
  std::size_t idx = 0;
  defined_ports_ = 0;
  sim::restore_seq(r, [&](std::size_t) {
    if (idx >= ports_.size()) {
      throw sim::SnapshotError("NoisyChannel: port count mismatch");
    }
    Port& p = ports_[idx++];
    p.freq = static_cast<int>(r.u32());
    p.value = static_cast<Logic4>(r.u8());
    p.rx_freq = static_cast<int>(r.u32());
    if (is_defined(p.value)) ++defined_ports_;
  });
  if (idx != ports_.size()) {
    throw sim::SnapshotError("NoisyChannel: port count mismatch");
  }
  run_ = Run{};
  if (r.b()) {
    run_.active = true;
    run_.port = static_cast<PortId>(r.u32());
    run_.freq = static_cast<int>(r.u32());
    run_.start = r.time();
    run_.period = r.time();
    run_.masked = r.b();
    // run_.bits/clean stay null until the owning radio rebinds them (and,
    // for a masked run, re-walks the mask from the restored walker).
  }
  bits_driven_ = r.u64();
  bits_flipped_ = r.u64();
  collision_samples_ = r.u64();
  bits_burst_ = r.u64();
  burst_fallbacks_ = r.u64();
  const bool had_trace = r.b();
  if (had_trace != bus_trace_.has_value()) {
    throw sim::SnapshotError("NoisyChannel: bus-trace presence mismatch");
  }
  if (had_trace) bus_value_ = static_cast<Logic4>(r.u8());
  r.leave_section();
}

void NoisyChannel::rebind_run_bits(PortId port, const sim::BitVector* bits) {
  assert(run_.active && run_.port == port && run_.clean == nullptr &&
         run_.bits == nullptr);
  (void)port;
  run_.clean = bits;
  run_.bits = bits;
  // The restored walker is the one the run started from: walking it
  // again rebuilds the same mask and leaves the walker where it was.
  if (run_.masked) arm_masked_run(*bits);
}

void NoisyChannel::refresh_trace() {
  if (!bus_trace_) return;
  Logic4 acc = Logic4::kZ;
  for (const Port& p : ports_) acc = resolve(acc, p.value);
  if (acc == bus_value_) return;
  bus_value_ = acc;
  if (sim::VcdTracer* tracer = env().tracer()) {
    tracer->change(*bus_trace_, to_char(acc));
  }
}

}  // namespace btsc::phy
