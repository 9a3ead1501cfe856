#include "baseband/receiver.hpp"

#include <bit>
#include <cassert>

#include "baseband/crc.hpp"
#include "baseband/fec.hpp"
#include "baseband/hec.hpp"

namespace btsc::baseband {
namespace {

/// The last sync-word bit is air bit 67 for both ID packets and full
/// access codes; it is sampled a quarter bit into its period, 67.25 us
/// after the packet started (exact for even-half-slot transmissions,
/// +0.5 us for odd-half-slot ones -- well inside all window margins).
constexpr sim::SimTime kSyncEndOffset = sim::SimTime::ns(67'250);

}  // namespace

Receiver::Receiver(sim::Environment& env, std::string name)
    : env_(env), name_(std::move(name)) {}

void Receiver::configure(const sim::BitVector& sync_word,
                         std::uint8_t check_init,
                         std::optional<std::uint8_t> whiten_init,
                         Expect expect) {
  // Materialise any lazily pending samples into the OLD machine first:
  // the per-bit path delivered them at their own instants before this
  // reconfiguration ran, and the fresh correlator below must start cold
  // (bits_seen 0), not pre-warmed by pre-reconfig bits.
  if (catch_up_) catch_up_();
  machine_.correlator = Correlator(sync_word);
  configured_ = true;
  check_init_ = check_init;
  whiten_init_ = whiten_init;
  expect_ = expect;
  reset_machine();
  if (state_changed_) state_changed_();
}

void Receiver::reset_machine() {
  machine_.phase = Phase::kSearch;
  machine_.correlator.reset();
  machine_.collected.clear();
  machine_.payload_data_bits.clear();
  machine_.payload_total_coded_bits = 0;
  machine_.payload_body_bytes = 0;
  machine_.payload_fec_failed = false;
  machine_.have_whitener = false;
}

void Receiver::reset() {
  // Same ordering contract as configure(): pending samples belong to
  // the state being abandoned.
  if (catch_up_) catch_up_();
  reset_machine();
  if (state_changed_) state_changed_();
}

// ---------------------------------------------------------------------------
// The decode machine. step() makes every quiet state change and reports
// the first externally visible effect instead of performing it.
// ---------------------------------------------------------------------------

Receiver::Effect Receiver::payload_step(Machine& m) {
  if (is_fec23(m.header.type)) {
    if (m.collected.size() % kFec23BlockBits == 0) {
      const auto air = static_cast<std::uint16_t>(m.collected.extract_word(
          m.collected.size() - kFec23BlockBits, kFec23BlockBits));
      const Fec23Block block = fec23_decode_block15(air);
      if (block.failed) {
        m.payload_fec_failed = true;
        ++m.fec_failures;
      }
      std::uint16_t data10 = block.data10;
      if (m.have_whitener) {
        data10 ^= static_cast<std::uint16_t>(
            m.whitener.keystream(kFec23DataBits));
      }
      m.payload_data_bits.append_uint(data10, kFec23DataBits);
    }
  } else {
    bool data_bit = m.collected[m.collected.size() - 1];
    if (m.have_whitener && m.whitener.next()) data_bit = !data_bit;
    m.payload_data_bits.push_back(data_bit);
  }
  // Resolve the total length once the payload header is decodable.
  if (m.payload_total_coded_bits == 0) {
    const std::size_t need = 8 * payload_header_bytes(m.header.type);
    if (need > 0 && m.payload_data_bits.size() >= need) {
      std::uint16_t length = 0;
      if (need == 8) {
        length = static_cast<std::uint16_t>(
            (m.payload_data_bits.extract_word(0, 8) >> 3) & 0x1Fu);
      } else {
        const auto two = m.payload_data_bits.extract_word(0, 16);
        length = static_cast<std::uint16_t>(((two >> 3) & 0x1Fu) |
                                            (((two >> 8) & 0x0Fu) << 5));
      }
      if (length > max_user_bytes(m.header.type) || m.payload_fec_failed) {
        // Corrupt length field: we cannot frame the payload. The caller
        // reports a failed packet rather than reading a bogus bit count.
        return Effect::kPayloadBad;
      }
      m.payload_body_bytes = payload_header_bytes(m.header.type) + length +
                             (has_crc(m.header.type) ? 2u : 0u);
      const std::size_t data_bits = 8 * m.payload_body_bytes;
      m.payload_total_coded_bits =
          is_fec23(m.header.type)
              ? (data_bits + kFec23DataBits - 1) / kFec23DataBits *
                    kFec23BlockBits
              : data_bits;
    }
  }
  if (m.payload_total_coded_bits != 0 &&
      m.collected.size() >= m.payload_total_coded_bits) {
    return Effect::kPayloadDone;
  }
  return Effect::kNone;
}

Receiver::Effect Receiver::step(Machine& m, bool bit) {
  switch (m.phase) {
    case Phase::kSearch:
      return m.correlator.push(bit) ? Effect::kSync : Effect::kNone;
    case Phase::kTrailer:
      m.collected.push_back(bit);
      if (m.collected.size() == 4) {
        m.collected.clear();
        m.phase = Phase::kHeader;
      }
      return Effect::kNone;
    case Phase::kHeader:
      m.collected.push_back(bit);
      return m.collected.size() == 54 ? Effect::kHeaderDone : Effect::kNone;
    case Phase::kPayload:
      m.collected.push_back(bit);
      return payload_step(m);
  }
  return Effect::kNone;
}

void Receiver::execute(Effect e) {
  switch (e) {
    case Effect::kNone:
      return;
    case Effect::kSync:
      on_sync_found();
      return;
    case Effect::kHeaderDone:
      finish_header();
      return;
    case Effect::kPayloadBad:
      deliver_payload_bad();
      return;
    case Effect::kPayloadDone:
      on_payload_complete();
      return;
  }
}

// ---------------------------------------------------------------------------
// Per-sample entry (classic path; also runs every effect sample)
// ---------------------------------------------------------------------------

void Receiver::on_bit(phy::Logic4 sample) {
  if (!configured_) return;  // not configured yet
  if (sample != phy::Logic4::kZ) ++carrier_samples_;
  bool bit;
  switch (sample) {
    case phy::Logic4::kZero:
      bit = false;
      break;
    case phy::Logic4::kOne:
      bit = true;
      break;
    case phy::Logic4::kZ:
      bit = false;  // no carrier: the demodulator slices noise floor
      break;
    default:  // collision: garbled symbol
      bit = env_.rng().bernoulli(0.5);
      break;
  }
  execute(step(machine_, bit));
}

// ---------------------------------------------------------------------------
// Burst-transport sink: probe and bulk consumption
// ---------------------------------------------------------------------------

std::size_t Receiver::quiet_prefix(const sim::BitVector* bits,
                                   std::size_t first,
                                   std::size_t count) const {
  if (!configured_) return count;  // unconfigured: samples are dropped
  if (machine_.phase == Phase::kSearch) {
    // Search only touches the correlator: dry-run a register copy.
    Correlator c = machine_.correlator;
    if (bits == nullptr) {
      // All-'Z' future: after 64 zero shifts the window is stable, so
      // either a fire happens within the first 65 pushes or never (even
      // for a degenerate sync word that correlates with silence).
      const std::size_t limit = count < 65 ? count : 65;
      for (std::size_t i = 0; i < limit; ++i) {
        if (c.push(false)) return i;
      }
      return count;
    }
    for (std::size_t i = 0; i < count; ++i) {
      if (c.push((*bits)[first + i])) return i;
    }
    return count;
  }
  // Assembly phases: dry-run a scratch copy of the whole machine (the
  // copy-assign reuses the scratch buffers' capacity -- no steady-state
  // allocation). Real packet framings complete within a few thousand
  // bits, but a corrupted header that passed HEC can name a reserved
  // type whose payload length never resolves -- the per-bit path just
  // accumulates one bit per microsecond there, so the probe must not
  // chase the full horizon. Capping the answer is always sound: the
  // caller treats the capped position as a barrier and runs that one
  // sample through the exact per-sample path, then re-probes.
  constexpr std::size_t kProbeCap = 8192;  // > any real packet framing
  const std::size_t limit = count < kProbeCap ? count : kProbeCap;
  scratch_ = machine_;
  for (std::size_t i = 0; i < limit; ++i) {
    const bool bit = bits != nullptr && (*bits)[first + i];
    if (step(scratch_, bit) != Effect::kNone) return i;
  }
  return limit;
}

void Receiver::consume_quiet(const sim::BitVector* bits, std::size_t first,
                             std::size_t count) {
  if (!configured_ || count == 0) return;
  if (bits != nullptr) carrier_samples_ += count;
  std::size_t i = 0;
  while (i < count) {
    if (machine_.phase == Phase::kSearch) {
      // Word path: shift up to 64 known-quiet bits into the correlator
      // at once (a prior probe certified no position fires).
      const auto chunk =
          static_cast<unsigned>(count - i < 64 ? count - i : 64);
      const std::uint64_t w =
          bits != nullptr ? bits->extract_word(first + i, chunk) : 0;
#ifndef NDEBUG
      {
        Correlator check = machine_.correlator;
        for (unsigned b = 0; b < chunk; ++b) {
          assert(!check.push((w >> b) & 1u) &&
                 "consume_quiet crossed a sync fire");
        }
      }
#endif
      machine_.correlator.advance(w, chunk);
      i += chunk;
      continue;
    }
    const bool bit = bits != nullptr && (*bits)[first + i];
    [[maybe_unused]] const Effect e = step(machine_, bit);
    assert(e == Effect::kNone && "consume_quiet crossed a side effect");
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Effect execution
// ---------------------------------------------------------------------------

Receiver::Result& Receiver::fresh_result() {
  result_.is_id = false;
  result_.header_ok = false;
  result_.payload_ok = false;
  result_.fec_failed = false;
  result_.header = PacketHeader{};
  result_.payload_body.clear();
  result_.packet_start = sim::SimTime::zero();
  return result_;
}

void Receiver::on_sync_found() {
  ++syncs_;
  sync_done_time_ = env_.now();
  if (expect_ == Expect::kIdOnly) {
    Result& r = fresh_result();
    r.is_id = true;
    r.packet_start = sync_done_time_ - kSyncEndOffset;
    machine_.correlator.reset();
    deliver(r);
    return;
  }
  machine_.collected.clear();
  machine_.have_whitener = whiten_init_.has_value();
  if (whiten_init_) machine_.whitener = Whitener(*whiten_init_);
  machine_.phase = Phase::kTrailer;
}

void Receiver::finish_header() {
  // FEC-1/3 majority vote of the 54 coded header bits into the 18
  // information bits, then de-whitening -- all in one register, no
  // intermediate BitVector.
  std::uint32_t info = 0;
  for (unsigned i = 0; i < 18; ++i) {
    const auto triplet =
        static_cast<unsigned>(machine_.collected.extract_word(3 * i, 3));
    info |= static_cast<std::uint32_t>(std::popcount(triplet) >= 2) << i;
  }
  if (machine_.have_whitener) {
    info ^= static_cast<std::uint32_t>(machine_.whitener.keystream(18));
  }
  const auto header10 = static_cast<std::uint16_t>(info & 0x3FFu);
  const auto hec = static_cast<std::uint8_t>((info >> 10) & 0xFFu);
  if (hec_compute10(header10, check_init_) != hec) {
    ++hec_failures_;
    Result& r = fresh_result();
    r.packet_start = sync_done_time_ - kSyncEndOffset;
    deliver(r);  // header_ok == false
    reset_machine();
    return;
  }
  machine_.header = PacketHeader::unpack(header10);
  if (header_hook_ && !header_hook_(machine_.header)) {
    // Addressed elsewhere: the link controller told us to stop listening.
    reset_machine();
    return;
  }
  if (!has_payload(machine_.header.type)) {
    Result& r = fresh_result();
    r.header = machine_.header;
    r.header_ok = true;
    r.payload_ok = true;
    r.packet_start = sync_done_time_ - kSyncEndOffset;
    deliver(r);
    reset_machine();
    return;
  }
  // Start the payload phase.
  machine_.phase = Phase::kPayload;
  machine_.collected.clear();
  machine_.payload_data_bits.clear();
  machine_.payload_fec_failed = false;
  machine_.payload_body_bytes = 0;
  machine_.payload_total_coded_bits = 0;
  if (machine_.header.type == PacketType::kFhs) {
    machine_.payload_body_bytes = kFhsBytes + 2;  // + CRC
    machine_.payload_total_coded_bits =
        (8 * machine_.payload_body_bytes + kFec23DataBits - 1) /
        kFec23DataBits * kFec23BlockBits;
  }
}

void Receiver::deliver_payload_bad() {
  Result& r = fresh_result();
  r.header = machine_.header;
  r.header_ok = true;
  r.fec_failed = machine_.payload_fec_failed;
  r.packet_start = sync_done_time_ - kSyncEndOffset;
  ++crc_failures_;
  deliver(r);
  reset_machine();
}

void Receiver::on_payload_complete() {
  Result& r = fresh_result();
  r.header = machine_.header;
  r.header_ok = true;
  r.fec_failed = machine_.payload_fec_failed;
  r.packet_start = sync_done_time_ - kSyncEndOffset;

  // Repack the decoded bits into the reusable body buffer (capacity is
  // retained across packets: no steady-state allocation).
  std::vector<std::uint8_t>& bytes = r.payload_body;
  for (std::size_t i = 0;
       i + 8 <= machine_.payload_data_bits.size() &&
       bytes.size() < machine_.payload_body_bytes;
       i += 8) {
    bytes.push_back(static_cast<std::uint8_t>(
        machine_.payload_data_bits.extract_word(i, 8)));
  }
  bool payload_ok = false;
  if (bytes.size() == machine_.payload_body_bytes &&
      !machine_.payload_fec_failed) {
    if (has_crc(machine_.header.type)) {
      const auto crc = static_cast<std::uint16_t>(
          bytes[bytes.size() - 2] |
          (static_cast<std::uint16_t>(bytes.back()) << 8));
      bytes.resize(bytes.size() - 2);
      if (crc16_check(bytes, check_init_, crc)) {
        payload_ok = true;
      } else {
        ++crc_failures_;
      }
    } else {
      payload_ok = true;
    }
  } else if (machine_.payload_fec_failed) {
    // already counted in machine_.fec_failures
  } else {
    ++crc_failures_;
  }
  r.payload_ok = payload_ok;
  if (!payload_ok) bytes.clear();
  deliver(r);
  reset_machine();
}

void Receiver::deliver(const Result& r) {
  if (handler_) handler_(r);
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kRecvTag = sim::snapshot_tag("RECV");

}  // namespace

void Receiver::save_state(sim::SnapshotWriter& w) const {
  w.begin_section(kRecvTag);
  w.b(configured_);
  w.u8(check_init_);
  w.b(whiten_init_.has_value());
  w.u8(whiten_init_.value_or(0));
  w.u8(static_cast<std::uint8_t>(expect_));
  // Decode machine (scratch_ is a probe buffer, result_ a delivery
  // buffer: neither carries state across samples).
  w.u8(static_cast<std::uint8_t>(machine_.phase));
  w.u64(machine_.correlator.expected_word());
  w.u64(machine_.correlator.window_word());
  w.u64(machine_.correlator.bits_seen());
  sim::save_bitvector(w, machine_.collected);
  w.u16(machine_.header.pack());
  w.b(machine_.have_whitener);
  w.u8(machine_.whitener.state());
  w.u64(machine_.payload_total_coded_bits);
  w.u64(machine_.payload_body_bytes);
  sim::save_bitvector(w, machine_.payload_data_bits);
  w.b(machine_.payload_fec_failed);
  w.u64(machine_.fec_failures);
  w.time(sync_done_time_);
  w.u64(carrier_samples_);
  w.u64(syncs_);
  w.u64(hec_failures_);
  w.u64(crc_failures_);
  w.end_section();
}

void Receiver::restore_state(sim::SnapshotReader& r) {
  r.enter_section(kRecvTag);
  configured_ = r.b();
  check_init_ = r.u8();
  const bool have_whiten_init = r.b();
  const std::uint8_t whiten_init = r.u8();
  whiten_init_ = have_whiten_init ? std::optional<std::uint8_t>(whiten_init)
                                  : std::nullopt;
  expect_ = static_cast<Expect>(r.u8());
  machine_.phase = static_cast<Phase>(r.u8());
  const std::uint64_t expected = r.u64();
  const std::uint64_t window = r.u64();
  const std::uint64_t bits_seen = r.u64();
  machine_.correlator.restore_registers(expected, window, bits_seen);
  sim::restore_bitvector(r, machine_.collected);
  machine_.header = PacketHeader::unpack(r.u16());
  machine_.have_whitener = r.b();
  machine_.whitener = Whitener(r.u8());
  machine_.payload_total_coded_bits = static_cast<std::size_t>(r.u64());
  machine_.payload_body_bytes = static_cast<std::size_t>(r.u64());
  sim::restore_bitvector(r, machine_.payload_data_bits);
  machine_.payload_fec_failed = r.b();
  machine_.fec_failures = r.u64();
  sync_done_time_ = r.time();
  carrier_samples_ = r.u64();
  syncs_ = r.u64();
  hec_failures_ = r.u64();
  crc_failures_ = r.u64();
  r.leave_section();
}

}  // namespace btsc::baseband
