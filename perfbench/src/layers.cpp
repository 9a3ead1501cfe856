// The traced run: per-layer numbers for one workload.
//
// It replays the workload's sweeps at one thread through the layers'
// public entry points -- warm-up -> save -> scaffold -> restore ->
// measure for forked studies, construct -> measure for the single-stage
// creation sweep -- with spans opened from this file around every call,
// and checks that the replay reproduces the sweep's rows bit for bit, so
// the spans provably timed the same work. Counts come from the layers'
// public accessors and are deterministic. Short probes time the hot
// entry points the sweeps lean on (error masks, quiet-prefix dry runs,
// access codes, hop selection, packet codecs, snapshot, checkpoint and
// journal I/O) at the workload's own parameters, and a service session
// times the queueing layer. Nothing inside the library is instrumented.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "baseband/access_code.hpp"
#include "baseband/address.hpp"
#include "baseband/bt_clock.hpp"
#include "baseband/hop.hpp"
#include "baseband/packet.hpp"
#include "baseband/receiver.hpp"
#include "core/experiments.hpp"
#include "core/system.hpp"
#include "l2cap/l2cap.hpp"
#include "runner/journal.hpp"
#include "runner/warmup_store.hpp"
#include "sim/environment.hpp"
#include "sim/rng.hpp"
#include "stats/accumulator.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace btsc;
using runner::SweepResult;
using runner::WarmupMode;
using Rows = std::vector<std::vector<double>>;

volatile std::uint64_t g_sink = 0;  // keeps probe results observable

// ---- deterministic counters read from the layers' accessors ----

enum Counter : std::size_t {
  kActivations,
  kDeltaCycles,
  kFired,
  kSimUs,
  kBitsDriven,
  kBitsBurst,
  kBitsFlipped,
  kBurstFallbacks,
  kCollisions,
  kClockTicks,
  kSyncs,
  kHecFailures,
  kCrcFailures,
  kFecFailures,
  kBackoffs,
  kRetransmissions,
  kIdTx,
  kPdusSent,
  kCounterCount
};
using Counters = std::array<std::uint64_t, kCounterCount>;

Counters read_counters(core::BluetoothSystem& sys) {
  Counters c{};
  sim::Environment& env = sys.env();
  c[kActivations] = env.process_activations();
  c[kDeltaCycles] = env.delta_count();
  c[kFired] = env.scheduler_stats().fired;
  c[kSimUs] = env.now().as_ns() / 1000;
  const phy::NoisyChannel& ch = sys.channel();
  c[kBitsDriven] = ch.bits_driven();
  c[kBitsBurst] = ch.bits_burst();
  c[kBitsFlipped] = ch.bits_flipped();
  c[kBurstFallbacks] = ch.burst_fallbacks();
  c[kCollisions] = ch.collision_samples();
  for (int i = -1; i < sys.num_slaves(); ++i) {
    baseband::Device& d = i < 0 ? sys.master() : sys.slave(i);
    c[kClockTicks] += d.clock().ticks();
    c[kSyncs] += d.receiver().syncs_detected();
    c[kHecFailures] += d.receiver().hec_failures();
    c[kCrcFailures] += d.receiver().crc_failures();
    c[kFecFailures] += d.receiver().fec_failures();
    const baseband::LcStats& lc = d.lc().stats();
    c[kBackoffs] += lc.backoffs;
    c[kRetransmissions] += lc.retransmissions;
    c[kIdTx] += lc.id_tx;
    c[kPdusSent] += (i < 0 ? sys.master_lm() : sys.slave_lm(i)).pdus_sent();
  }
  return c;
}

void add_delta(Counters& acc, const Counters& after, const Counters& before) {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    acc[i] += after[i] - before[i];
  }
}

/// What the replay saw, beyond its spans.
struct ReplayLog {
  Counters counters{};
  std::uint64_t replications = 0;
  std::uint64_t measure_fired = 0;
  std::uint64_t measure_sim_us = 0;
  std::vector<double> snapshot_bytes;
  std::vector<std::uint8_t> image;  // one warm-up image, for the probes
  std::uint64_t trace_id = 0;
  double wall_s = 0.0;
};

/// Runs one measure stage under a "core.measure" span and books the
/// counters it moved.
template <class F>
auto measured(Tracer& tr, ReplayLog& log, core::BluetoothSystem& sys, F&& f) {
  const Counters before = read_counters(sys);
  std::optional<decltype(f())> r;
  {
    Tracer::Scope s(tr, "core.measure");
    r.emplace(f());
  }
  const Counters after = read_counters(sys);
  add_delta(log.counters, after, before);
  log.measure_fired += after[kFired] - before[kFired];
  log.measure_sim_us += after[kSimUs] - before[kSimUs];
  ++log.replications;
  return std::move(*r);
}

/// Sweep defaults resolved the way the scenario registry resolves them.
struct Resolved {
  int replications = 1;
  std::uint64_t base_seed = 1;
};
Resolved resolve(const SweepSpec& s) {
  const runner::ScenarioInfo* info = runner::find_scenario(s.scenario);
  if (info == nullptr) throw std::invalid_argument("unknown " + s.scenario);
  const auto& q = s.request;
  Resolved r;
  r.replications = q.replications > 0 ? q.replications
                   : q.quick          ? info->quick_replications
                                      : info->default_replications;
  r.base_seed = q.base_seed != 0 ? q.base_seed : info->default_base_seed;
  if (q.max_points != 0) {
    throw std::invalid_argument("replay: max_points is not replayed");
  }
  return r;
}

std::uint64_t warm_seed(std::uint64_t base, std::size_t stream) {
  return sim::Rng::derive_stream_seed(base, stream,
                                      core::kWarmupReplicationIndex);
}

// ---- Fig. 8 replay (single-stage or forked) ----

Rows replay_fig08(const SweepSpec& s, Tracer& tr, ReplayLog& log) {
  const Resolved r = resolve(s);
  const WarmupMode mode = s.request.warmup;
  if (mode == WarmupMode::kCold) {
    throw std::invalid_argument("replay: cold staging is not replayed");
  }
  const bool fork = mode == WarmupMode::kFork;
  constexpr std::uint32_t kTimeout = 2048;  // the paper's 1.28 s
  const double bers[] = {1.0 / 100, 1.0 / 90, 1.0 / 80, 1.0 / 70,
                         1.0 / 60,  1.0 / 50, 1.0 / 40, 1.0 / 30};
  Rows rows;
  for (std::size_t p = 0; p < std::size(bers); ++p) {
    const double ber = bers[p];
    const std::uint64_t warm = warm_seed(r.base_seed, p);
    std::vector<std::uint8_t> image;
    if (fork) {
      tr.set_trace(++log.trace_id);
      std::unique_ptr<core::BluetoothSystem> w;
      {
        Tracer::Scope span(tr, "core.warmup");
        w = core::make_creation_system(ber, kTimeout, warm);
      }
      add_delta(log.counters, read_counters(*w), Counters{});
      {
        Tracer::Scope span(tr, "runner.snapshot_save");
        image = w->save_snapshot();
      }
      log.snapshot_bytes.push_back(static_cast<double>(image.size()));
      if (log.image.empty()) log.image = image;
    }
    core::CreationPoint acc;
    acc.ber = ber;
    for (int rep = 0; rep < r.replications; ++rep) {
      const std::uint64_t seed = sim::Rng::derive_stream_seed(
          r.base_seed, p, static_cast<std::uint64_t>(rep));
      tr.set_trace(++log.trace_id);
      Tracer::Scope span(tr, "replication");
      std::unique_ptr<core::BluetoothSystem> sys;
      core::CreationSample sample;
      if (fork) {
        {
          Tracer::Scope c(tr, "core.construct");
          sys = core::make_creation_system(ber, kTimeout, warm);
        }
        {
          Tracer::Scope c(tr, "runner.snapshot_restore");
          sys->restore_snapshot(image);
        }
        sample = measured(tr, log, *sys,
                          [&] { return core::run_creation_from(*sys, seed); });
      } else {
        {
          Tracer::Scope c(tr, "core.construct");
          sys = core::make_creation_system(ber, kTimeout, seed);
        }
        add_delta(log.counters, read_counters(*sys), Counters{});
        sample = measured(tr, log, *sys, [&] {
          core::CreationSample out;
          const core::PhaseResult inquiry = sys->run_inquiry();
          out.inquiry_success = inquiry.success;
          out.inquiry_slots = inquiry.slots;
          if (inquiry.success) {
            out.page_attempted = true;
            const core::PhaseResult page = sys->run_page(0);
            out.page_success = page.success;
            out.page_slots = page.slots;
          }
          return out;
        });
      }
      core::CreationPoint one;
      one.ber = ber;
      one.add(sample);
      if (rep == 0) {
        acc = one;
      } else {
        acc.merge(one);
      }
    }
    const auto [ilo, ihi] = acc.inquiry_ok.wilson95();
    const auto [plo, phi] = acc.page_ok.wilson95();
    rows.push_back({1.0 / ber, 1.0 - acc.inquiry_ok.ratio(), 1.0 - ihi,
                    1.0 - ilo, 1.0 - acc.page_ok.ratio(), 1.0 - phi,
                    1.0 - plo});
  }
  return rows;
}

// ---- Figs. 10-12 replay (forked; common random numbers) ----

/// Per-replication aggregate of the connected-phase figures, folded in
/// replication order exactly as the sweep runner folds its samples.
struct Agg {
  stats::Accumulator a, b, c;
  void merge(const Agg& o) {
    a.merge(o.a);
    b.merge(o.b);
    c.merge(o.c);
  }
};

template <class Point, class Warm, class Scaffold, class Measure>
std::vector<Agg> replay_connected(const SweepSpec& s,
                                  const std::vector<Point>& points,
                                  Tracer& tr, ReplayLog& log, Warm&& warmup,
                                  Scaffold&& scaffold, Measure&& measure) {
  const Resolved r = resolve(s);
  if (s.request.warmup != WarmupMode::kFork) {
    throw std::invalid_argument("replay: low-power sweeps replay forked");
  }
  std::vector<Agg> merged;
  for (std::size_t p = 0; p < points.size(); ++p) {
    // Common random numbers: every point draws stream 0.
    const std::uint64_t warm = warm_seed(r.base_seed, 0);
    tr.set_trace(++log.trace_id);
    std::vector<std::uint8_t> image;
    std::uint64_t construction_seed = 0;
    {
      core::ConnectedWarmup w;
      {
        Tracer::Scope span(tr, "core.warmup");
        w = warmup(warm);
      }
      add_delta(log.counters, read_counters(*w.system), Counters{});
      construction_seed = w.construction_seed;
      Tracer::Scope span(tr, "runner.snapshot_save");
      image = w.system->save_snapshot();
    }
    log.snapshot_bytes.push_back(static_cast<double>(image.size()));
    if (log.image.empty()) log.image = image;
    Agg acc;
    for (int rep = 0; rep < r.replications; ++rep) {
      const std::uint64_t seed = sim::Rng::derive_stream_seed(
          r.base_seed, 0, static_cast<std::uint64_t>(rep));
      tr.set_trace(++log.trace_id);
      Tracer::Scope span(tr, "replication");
      std::unique_ptr<core::BluetoothSystem> sys;
      {
        Tracer::Scope c(tr, "core.construct");
        sys = scaffold(construction_seed);
      }
      {
        Tracer::Scope c(tr, "runner.snapshot_restore");
        sys->restore_snapshot(image);
      }
      const Agg one = measured(tr, log, *sys,
                               [&] { return measure(*sys, points[p], seed); });
      if (rep == 0) {
        acc = one;
      } else {
        acc.merge(one);
      }
    }
    merged.push_back(acc);
  }
  return merged;
}

Rows replay_fig10(const SweepSpec& s, Tracer& tr, ReplayLog& log) {
  const std::vector<double> duties = {0.0,    0.0025, 0.005,  0.0075, 0.01,
                                      0.0125, 0.015,  0.0175, 0.02};
  const std::uint32_t window = s.request.quick ? 8000 : 40000;
  const auto merged = replay_connected(
      s, duties, tr, log, core::master_activity_warmup,
      core::master_activity_scaffold,
      [window](core::BluetoothSystem& sys, double duty, std::uint64_t seed) {
        core::MasterActivityConfig cfg;
        cfg.seed = seed;
        cfg.measure_slots = window;
        const auto row = core::run_master_activity_from(sys, duty, cfg);
        Agg a;
        a.a.add(row.master.tx_fraction);
        a.b.add(row.master.rx_fraction);
        a.c.add(static_cast<double>(row.messages));
        return a;
      });
  Rows rows;
  for (std::size_t i = 0; i < duties.size(); ++i) {
    const Agg& m = merged[i];
    rows.push_back({100.0 * duties[i], 100.0 * m.a.mean(), 100.0 * m.b.mean(),
                    100.0 * (m.a.mean() + m.b.mean()), m.c.mean()});
  }
  return rows;
}

/// Figs. 11/12: point 0 is the active-mode baseline every row pairs with.
Rows baseline_rows(const std::vector<std::optional<std::uint32_t>>& points,
                   const std::vector<Agg>& merged) {
  Rows rows;
  for (std::size_t i = 1; i < points.size(); ++i) {
    rows.push_back({static_cast<double>(*points[i]),
                    100.0 * merged[0].a.mean(), 100.0 * merged[i].a.mean()});
  }
  return rows;
}

Rows replay_fig11(const SweepSpec& s, Tracer& tr, ReplayLog& log) {
  const std::vector<std::optional<std::uint32_t>> points = {
      std::nullopt, 10u, 20u, 30u, 40u, 50u, 60u, 80u, 100u};
  const std::uint32_t window = s.request.quick ? 8000 : 30000;
  const auto merged = replay_connected(
      s, points, tr, log, core::sniff_activity_warmup,
      core::sniff_activity_scaffold,
      [window](core::BluetoothSystem& sys, std::optional<std::uint32_t> t,
               std::uint64_t seed) {
        core::SniffActivityConfig cfg;
        cfg.seed = seed;
        cfg.measure_slots = window;
        Agg a;
        a.a.add(core::run_sniff_activity_from(sys, t, cfg).slave.total());
        return a;
      });
  return baseline_rows(points, merged);
}

Rows replay_fig12(const SweepSpec& s, Tracer& tr, ReplayLog& log) {
  const std::vector<std::optional<std::uint32_t>> points = {
      std::nullopt, 40u, 80u, 120u, 160u, 200u, 400u, 600u, 800u, 1000u};
  const std::uint32_t window = s.request.quick ? 8000 : 30000;
  const auto merged = replay_connected(
      s, points, tr, log, core::hold_activity_warmup,
      core::hold_activity_scaffold,
      [window](core::BluetoothSystem& sys, std::optional<std::uint32_t> t,
               std::uint64_t seed) {
        core::HoldActivityConfig cfg;
        cfg.seed = seed;
        cfg.min_measure_slots = window;
        Agg a;
        a.a.add(core::run_hold_activity_from(sys, t, cfg).slave.total());
        return a;
      });
  return baseline_rows(points, merged);
}

Rows replay(const SweepSpec& s, Tracer& tr, ReplayLog& log) {
  if (s.scenario == "fig08") return replay_fig08(s, tr, log);
  if (s.scenario == "fig10") return replay_fig10(s, tr, log);
  if (s.scenario == "fig11") return replay_fig11(s, tr, log);
  if (s.scenario == "fig12") return replay_fig12(s, tr, log);
  throw std::invalid_argument("replay: no replay for " + s.scenario);
}

// ---- probes ----

/// Median host ns per call of `op` over batches of calls, each batch
/// under one span, for at least `budget_s` and five batches. Batches start
/// at `batch` calls and double until one takes 20 us, so clock reads and
/// spans stay a small part of what is timed.
template <class F>
double ns_per_op(Tracer& tr, const char* span, double budget_s,
                 std::size_t batch, F&& op) {
  for (;;) {
    const auto ts = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) op();
    if (since(ts) >= 20e-6) break;
    batch *= 2;
  }
  std::vector<double> per_op;
  const auto t0 = Clock::now();
  do {
    Tracer::Scope s(tr, span);
    const auto ts = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) op();
    per_op.push_back(since(ts) * 1e9 / static_cast<double>(batch));
  } while (since(t0) < budget_s || per_op.size() < 5);
  return median(per_op);
}

constexpr double kProbeBudget = 0.15;

/// phy: pre-drawing one DM1-sized (366-bit) error mask, averaged over the
/// workload's BERs.
double mask_ns_per_bit(Tracer& tr, const std::vector<double>& bers) {
  constexpr std::size_t kBits = 366;
  std::array<std::uint64_t, (kBits + 63) / 64> words{};
  sim::Rng rng(7);
  double sum = 0.0;
  for (double ber : bers) {
    sum += ns_per_op(tr, "phy.fill_error_mask", kProbeBudget / bers.size(),
                     256, [&] {
                       rng.fill_error_mask(words.data(), kBits, ber);
                       g_sink = g_sink + words[0];
                     }) /
           kBits;
  }
  return sum / static_cast<double>(bers.size());
}

/// baseband: a GIAC-scanning receiver dry-running one noise-free 11.25 ms
/// scan window (bits present, no sync in them).
double quiet_prefix_ns_per_bit(Tracer& tr) {
  sim::Environment env(1);
  baseband::Receiver rx(env, "probe_rx");
  rx.configure(baseband::sync_word(baseband::kGiacLap),
               baseband::kDefaultCheckInit, std::nullopt,
               baseband::Receiver::Expect::kIdOnly);
  const sim::BitVector window(11250, false);
  std::size_t quiet = 0;
  const double ns = ns_per_op(tr, "baseband.quiet_prefix", kProbeBudget, 8,
                              [&] {
                                quiet = rx.quiet_prefix(&window, 0,
                                                        window.size());
                                g_sink = g_sink + quiet;
                              });
  if (quiet != window.size()) {
    throw std::runtime_error("quiet_prefix probe: silence fired a sync");
  }
  return ns / static_cast<double>(window.size());
}

double access_code_ns(Tracer& tr) {
  return ns_per_op(tr, "baseband.access_code", kProbeBudget, 256, [] {
    const auto sync = baseband::sync_word(baseband::kGiacLap);
    const auto code = baseband::access_code(baseband::kGiacLap, true);
    g_sink = g_sink + sync.size() + code.size();
  });
}

double hop_ns(Tracer& tr) {
  baseband::HopInput in;
  in.address = baseband::kGiacLap;
  in.mode = baseband::HopMode::kInquiry;
  return ns_per_op(tr, "baseband.hop_frequency", kProbeBudget, 1024, [&] {
    in.clock = (in.clock + 2) & 0x0FFFFFFFu;
    g_sink = g_sink + static_cast<std::uint64_t>(baseband::hop_frequency(in));
  });
}

/// baseband: composing one full DM1 packet and receiving it bit by bit.
double packet_decode_ns(Tracer& tr) {
  using namespace baseband;
  constexpr std::uint32_t kLap = 0x2C4D5E;
  const LinkParams params{0x77, std::uint8_t{0x35}};
  sim::Environment env(1);
  Receiver rx(env, "probe_rx");
  std::uint64_t ok = 0;
  rx.set_handler([&](const Receiver::Result& r) { ok += r.payload_ok; });
  const sim::BitVector sync = sync_word(kLap);
  const sim::BitVector code = access_code(kLap, true);
  const std::vector<std::uint8_t> user(17, 0xA5);
  PacketHeader h;
  h.lt_addr = 1;
  h.type = PacketType::kDm1;
  std::uint64_t sent = 0;
  const double ns = ns_per_op(tr, "baseband.packet_codec", kProbeBudget, 16,
                              [&] {
                                sim::BitVector bits = code;
                                bits.append(compose_after_access_code(
                                    h, build_acl_body(PacketType::kDm1,
                                                      kLlidStart, true, user),
                                    params));
                                rx.configure(sync, params.check_init,
                                             params.whiten_init,
                                             Receiver::Expect::kFull);
                                for (std::size_t i = 0; i < bits.size(); ++i) {
                                  rx.on_bit(bits[i] ? phy::Logic4::kOne
                                                    : phy::Logic4::kZero);
                                }
                                ++sent;
                              });
  if (ok != sent) throw std::runtime_error("packet probe: DM1 not decoded");
  return ns;
}

/// core: the paper's four-device, 0.48 s creation scenario (continuity
/// with BENCH_kernel.json and the SystemC model's 747 cycles/s).
double paper480_cycles_per_s(Tracer& tr) {
  std::vector<double> rates;
  const auto t0 = Clock::now();
  do {
    Tracer::Scope s(tr, "core.paper480");
    const auto ts = Clock::now();
    core::SystemConfig sc;
    sc.num_slaves = 3;
    sc.seed = 7;
    sc.lc.inquiry_timeout_slots = 65000;
    core::BluetoothSystem sys(sc);
    for (int i = 0; i < 3; ++i) sys.slave(i).lc().enable_inquiry_scan();
    sys.master().lc().enable_inquiry();
    sys.run(sim::SimTime::ms(480));
    g_sink = g_sink + sys.env().process_activations();
    rates.push_back(480e3 / since(ts));
  } while (since(t0) < 2 * kProbeBudget || rates.size() < 5);
  return median(rates);
}

/// l2cap: segmented SDUs over a connected low-power warm-up system.
std::uint64_t l2cap_sdus_delivered(std::uint64_t seed) {
  core::ConnectedWarmup w = core::sniff_activity_warmup(seed);
  core::BluetoothSystem& sys = *w.system;
  l2cap::L2capMux master(sys.master_lm());
  l2cap::L2capMux slave(sys.slave_lm(0));
  const std::uint8_t lt = sys.lt_addr_of(0);
  constexpr int kSdus = 10;
  for (int i = 0; i < kSdus; ++i) {
    if (!master.send(lt, l2cap::kFirstDynamicCid,
                     std::vector<std::uint8_t>(100, static_cast<std::uint8_t>(i)))) {
      throw std::runtime_error("l2cap probe: SDU rejected");
    }
    sys.run(baseband::kSlotDuration * 400);
  }
  if (slave.sdus_delivered() != kSdus || slave.reassembly_errors() != 0) {
    throw std::runtime_error("l2cap probe: SDUs lost");
  }
  return slave.sdus_delivered();
}

/// runner: WarmupStore spill and load of a real warm-up image.
std::pair<double, double> checkpoint_us(Tracer& tr, const std::string& dir,
                                        const std::vector<std::uint8_t>& img) {
  fs::create_directories(dir);
  const runner::WarmupStore store(dir, "perfbench");
  const runner::SystemImage image{img, 42};
  std::vector<double> save, load;
  for (std::size_t i = 0; i < 20; ++i) {
    {
      Tracer::Scope s(tr, "runner.checkpoint_save");
      const auto ts = Clock::now();
      store.save(i, 42, {}, image);
      save.push_back(since(ts) * 1e6);
    }
    Tracer::Scope s(tr, "runner.checkpoint_load");
    const auto ts = Clock::now();
    const auto got = store.try_load(i, 42, {});
    load.push_back(since(ts) * 1e6);
    if (!got || got->bytes != img) {
      throw std::runtime_error("checkpoint probe: image did not round-trip");
    }
  }
  return {median(save), median(load)};
}

/// runner: one fsynced journal record of `record_bytes`.
double journal_append_us(Tracer& tr, const std::string& path,
                         std::size_t record_bytes) {
  runner::JournalConfig cfg;
  cfg.scenario = "perfbench";
  cfg.replications = 64;
  cfg.points = 1;
  runner::SweepJournal journal(path, cfg, false);
  const std::vector<std::uint8_t> sample(record_bytes, 0x5A);
  std::vector<double> us;
  for (std::uint64_t r = 0; r < 64; ++r) {
    Tracer::Scope s(tr, "runner.journal_append");
    const auto ts = Clock::now();
    journal.append(0, r, r, sample);
    us.push_back(since(ts) * 1e6);
  }
  return median(us);
}

/// Encoded size of one journaled sample of the workload's first sweep:
/// a CreationPoint for Fig. 8, three accumulators (TX, RX, messages) for
/// Fig. 10, one for Figs. 11 and 12.
std::size_t record_bytes(const std::vector<SweepSpec>& sweeps) {
  sim::SnapshotWriter w;
  const std::string& scenario = sweeps.front().scenario;
  if (scenario == "fig08") {
    core::CreationPoint().save_state(w);
  } else {
    for (int i = scenario == "fig10" ? 3 : 1; i > 0; --i) {
      stats::Accumulator().save_state(w);
    }
  }
  return w.take().size();
}

// ---- service session ----

struct ServiceLayer {
  SessionResult session;
  runner::WarmupStoreStats store{};
  double recover_ms = 0.0;
};

/// Runs jobs through a SweepService with a journaled, durable checkpoint
/// directory, then times a restart's recover() over the jobs it left.
ServiceLayer service_session(const std::string& dir,
                             const std::function<service::JobSpec()>& next,
                             double seconds, std::size_t max_jobs,
                             int depth) {
  fs::remove_all(dir);
  service::ServiceConfig cfg;
  cfg.jobs_dir = dir;
  cfg.workers = 2;
  cfg.queue_limit = 64;
  ServiceLayer out;
  {
    service::SweepService svc(cfg);
    svc.recover();
    svc.start();
    const auto w0 = runner::warmup_store_stats();
    out.session = closed_loop(svc, next, depth, seconds, max_jobs);
    const auto w1 = runner::warmup_store_stats();
    out.store.hits = w1.hits - w0.hits;
    out.store.misses = w1.misses - w0.misses;
    svc.wait_idle();
  }
  {
    service::SweepService restarted(cfg);
    const auto t0 = Clock::now();
    restarted.recover();
    out.recover_ms = since(t0) * 1e3;
  }
  fs::remove_all(dir);
  return out;
}

/// The small jobs a study workload sends through the service probe: two
/// specs of its own scenarios, each submitted twice so the second copy
/// can hit the first one's checkpoints.
std::vector<service::JobSpec> probe_jobs(const Options& opt) {
  const std::vector<std::string> scenarios =
      opt.workload == "creation" ? std::vector<std::string>{"fig08", "fig08"}
                                 : std::vector<std::string>{"fig10", "fig11"};
  std::vector<service::JobSpec> jobs;
  for (int copy = 0; copy < 2; ++copy) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      service::JobSpec spec;
      spec.id = "probe-" + std::to_string(jobs.size());
      spec.scenario = scenarios[i];
      spec.threads = 2;
      spec.quick = true;
      spec.replications = scenarios[i] == "fig08" ? 6 : 2;
      spec.base_seed = derived_seed(opt.seed, 0x70, i);
      spec.warmup = "fork";
      jobs.push_back(spec);
    }
  }
  return jobs;
}

SweepSpec as_sweep(const service::JobSpec& spec) {
  return SweepSpec{spec.scenario, request_of(spec)};
}

std::vector<double> workload_bers(const std::vector<SweepSpec>& sweeps) {
  for (const auto& s : sweeps) {
    if (s.scenario == "fig08") {
      return {1.0 / 100, 1.0 / 90, 1.0 / 80, 1.0 / 70,
              1.0 / 60,  1.0 / 50, 1.0 / 40, 1.0 / 30};
    }
  }
  return {0.0};  // the connected-phase studies run a noiseless channel
}

}  // namespace

Outcome run_traced(const Options& opt) {
  Tracer tr;
  Outcome out;
  const std::string dir =
      opt.work_dir + "/traced-" + std::to_string(::getpid());
  fs::create_directories(dir);

  // The sweeps to replay, and the service layer's session.
  std::vector<SweepSpec> sweeps;
  int threads = study_threads();
  ServiceLayer svc;
  if (opt.workload == "service") {
    JobMix mix(opt.seed);
    svc = service_session(
        dir + "/jobs", [&] { return mix.next(); }, 0.4 * opt.seconds,
        SIZE_MAX, 4);
    threads = 2;
    bool have_creation = false, have_lowpower = false;
    for (const auto& j : svc.session.finished) {
      bool& have = j.spec.scenario == "fig08" ? have_creation : have_lowpower;
      if (!have) sweeps.push_back(as_sweep(j.spec));
      have = true;
    }
    if (sweeps.empty()) throw std::runtime_error("service session ran no job");
  } else {
    sweeps = study(opt.workload, opt.seed, threads);
    const auto jobs = probe_jobs(opt);
    std::size_t at = 0;
    svc = service_session(
        dir + "/jobs", [&] { return jobs.at(at++); }, 1e9, jobs.size(), 2);
  }
  for (auto& s : sweeps) s.request.threads = threads;
  auto serial = sweeps;
  for (auto& s : serial) s.request.threads = 1;

  // Untraced sweeps: at the workload's threads (kernel counters from the
  // global scheduler stats) and at one thread (the speedup base and the
  // untraced side of the tracing overhead).
  std::vector<double> wall_n, wall_1;
  std::vector<SweepResult> results;
  sim::Environment::SchedulerStats k0{}, k1{};
  std::uint64_t reps = 0;
  const auto t0 = Clock::now();
  do {
    const auto g0 = sim::Environment::global_scheduler_stats();
    const auto ts = Clock::now();
    results = run_sweeps(sweeps);
    wall_n.push_back(since(ts));
    if (wall_n.size() == 1) {  // one pass's kernel traffic
      k0 = g0;
      k1 = sim::Environment::global_scheduler_stats();
    }
  } while (since(t0) < 0.2 * opt.seconds || wall_n.size() < 3);
  for (const auto& r : results) reps += replications_of(r);
  // One-thread passes bracket the replay (before and after), so a host
  // that drifts during the run shifts both sides of the overhead alike.
  std::vector<SweepResult> results_1;
  const auto serial_pass = [&] {
    const auto ts = Clock::now();
    results_1 = run_sweeps(serial);
    wall_1.push_back(since(ts));
  };
  serial_pass();

  // The traced replay.
  ReplayLog log;
  std::uint64_t mismatched = 0;
  {
    const auto ts = Clock::now();
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      const Rows rows = replay(serial[i], tr, log);
      // The threaded sweep must equal the single-threaded one (digest of
      // rows and kernel counters), and the replay must equal its rows.
      std::uint64_t want = digest(results_1[i]);
      if (opt.corrupt == "digest" && i == 0) want ^= 1;
      const bool same =
          same_rows(rows, results[i].rows) && digest(results[i]) == want;
      std::printf("replay %s: %zu rows %s the sweep\n",
                  sweeps[i].scenario.c_str(), rows.size(),
                  same ? "match" : "DIFFER FROM");
      if (!same) ++mismatched;
    }
    log.wall_s = since(ts);
  }
  serial_pass();
  if (log.replications != reps) ++mismatched;  // the replay missed work
  std::uint64_t failed_jobs = svc.session.rejected;
  for (const auto& j : svc.session.finished) {
    if (j.state != service::JobState::kDone) ++failed_jobs;
  }
  out.attempted = log.replications + sweeps.size() + svc.session.submitted;
  out.failed = mismatched + failed_jobs;
  out.correct = out.failed == 0;

  // Probes. The creation sweep restores no snapshots; its probe images
  // a creation system at the first BER.
  if (log.image.empty()) {
    auto sys = core::make_creation_system(1.0 / 100, 2048, opt.seed);
    for (int i = 0; i < 20; ++i) {
      Tracer::Scope s(tr, "runner.snapshot_save");
      log.image = sys->save_snapshot();
    }
    for (int i = 0; i < 20; ++i) {
      auto scaffold = core::make_creation_system(1.0 / 100, 2048, opt.seed);
      Tracer::Scope s(tr, "runner.snapshot_restore");
      scaffold->restore_snapshot(log.image);
    }
    log.snapshot_bytes.push_back(static_cast<double>(log.image.size()));
  }
  const double mask = mask_ns_per_bit(tr, workload_bers(sweeps));
  const double quiet = quiet_prefix_ns_per_bit(tr);
  const double access = access_code_ns(tr);
  const double hop = hop_ns(tr);
  const double codec = packet_decode_ns(tr);
  const double paper = paper480_cycles_per_s(tr);
  const std::uint64_t sdus = l2cap_sdus_delivered(derived_seed(opt.seed, 0x12, 0));
  const auto [ckpt_save, ckpt_load] =
      checkpoint_us(tr, dir + "/checkpoints", log.image);
  const double journal =
      journal_append_us(tr, dir + "/probe.journal", record_bytes(sweeps));

  fs::create_directories(fs::path(opt.trace_file).parent_path());
  if (!tr.write(opt.trace_file)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 opt.trace_file.c_str());
  }
  fs::remove_all(dir);

  // Self times per span name (the layer breakdown behind the metrics).
  std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, t] : tr.self_times()) {
    std::printf("%-28s %8llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
  }

  const Counters& c = log.counters;
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  auto ms = [](std::vector<double> v) { return median(std::move(v)) * 1e3; };
  auto us = [](std::vector<double> v) { return median(std::move(v)) * 1e6; };
  const double measure_s = [&] {
    double s = 0;
    for (double d : tr.durations("core.measure")) s += d;
    return s;
  }();
  double busy_s = 0.0;
  for (const char* n : {"replication", "core.warmup", "runner.snapshot_save"}) {
    for (double d : tr.durations(n)) busy_s += d;
  }
  const double untraced_1t = static_cast<double>(reps) / median(wall_1);
  const double traced = static_cast<double>(log.replications) / log.wall_s;
  std::vector<double> queue_wait, run_s;
  std::uint64_t committed = 0;
  for (const auto& j : svc.session.finished) {
    queue_wait.push_back(j.queue_wait_s);
    run_s.push_back(j.run_s);
    committed += j.committed;
  }
  const std::uint64_t hits = svc.store.hits, misses = svc.store.misses;
  const Tail measure_tail = tail(tr.durations("core.measure"));
  std::printf("core.measure_ms_tail is the %s; tracing overhead %.1f%%\n",
              describe(measure_tail).c_str(),
              100.0 * (untraced_1t - traced) / untraced_1t);

  out.add("sim.timers_fired", count(k1.fired - k0.fired), "count");
  out.add("sim.timers_scheduled", count(k1.scheduled - k0.scheduled), "count");
  out.add("sim.wheel_hit_ratio",
          count(k1.wheel_hits - k0.wheel_hits) /
              count(k1.scheduled - k0.scheduled),
          "ratio");
  out.add("sim.host_ns_per_event", measure_s * 1e9 / count(log.measure_fired),
          "ns");
  out.add("sim.process_activations", count(c[kActivations]), "count");
  out.add("sim.delta_cycles", count(c[kDeltaCycles]), "count");
  out.add("phy.bits_driven", count(c[kBitsDriven]), "count");
  out.add("phy.burst_ratio", count(c[kBitsBurst]) / count(c[kBitsDriven]),
          "ratio");
  out.add("phy.bits_flipped", count(c[kBitsFlipped]), "count");
  out.add("phy.burst_fallbacks", count(c[kBurstFallbacks]), "count");
  out.add("phy.collision_samples", count(c[kCollisions]), "count");
  out.add("phy.mask_ns_per_bit", mask, "ns");
  out.add("baseband.clock_ticks", count(c[kClockTicks]), "count");
  out.add("baseband.syncs_detected", count(c[kSyncs]), "count");
  out.add("baseband.hec_failures", count(c[kHecFailures]), "count");
  out.add("baseband.crc_failures", count(c[kCrcFailures]), "count");
  out.add("baseband.fec_failures", count(c[kFecFailures]), "count");
  out.add("baseband.lc_backoffs", count(c[kBackoffs]), "count");
  out.add("baseband.lc_retransmissions", count(c[kRetransmissions]), "count");
  out.add("baseband.lc_id_tx", count(c[kIdTx]), "count");
  out.add("baseband.quiet_prefix_ns_per_bit", quiet, "ns");
  out.add("baseband.access_code_ns", access, "ns");
  out.add("baseband.hop_ns", hop, "ns");
  out.add("baseband.packet_decode_ns", codec, "ns");
  out.add("lm.pdus_sent", count(c[kPdusSent]), "count");
  out.add("l2cap.sdus_delivered", count(sdus), "count");
  out.add("core.construct_ms", ms(tr.durations("core.construct")), "ms");
  // The creation family's warm-up is its construction (experiments.hpp).
  out.add("core.warmup_ms",
          ms(tr.durations("core.warmup").empty()
                 ? tr.durations("core.construct")
                 : tr.durations("core.warmup")),
          "ms");
  out.add("core.measure_ms_p50", ms(tr.durations("core.measure")), "ms");
  out.add("core.measure_ms_tail", measure_tail.value * 1e3, "ms");
  out.add("core.sim_cycles_per_s", count(log.measure_sim_us) / measure_s,
          "1/s");
  out.add("core.paper480_cycles_per_s", paper, "1/s");
  out.add("runner.speedup_vs_1t", median(wall_1) / median(wall_n), "x");
  out.add("runner.busy_share", busy_s / (threads * median(wall_n)), "ratio");
  out.add("runner.snapshot_bytes", median(log.snapshot_bytes), "B");
  out.add("runner.snapshot_save_us", us(tr.durations("runner.snapshot_save")),
          "us");
  out.add("runner.snapshot_restore_us",
          us(tr.durations("runner.snapshot_restore")), "us");
  out.add("runner.warmup_hits", count(hits), "count");
  out.add("runner.warmup_misses", count(misses), "count");
  out.add("runner.warm_hit_ratio",
          hits + misses ? count(hits) / count(hits + misses) : 0.0, "ratio");
  out.add("runner.checkpoint_save_us", ckpt_save, "us");
  out.add("runner.checkpoint_load_us", ckpt_load, "us");
  out.add("runner.journal_records", count(committed), "count");
  out.add("runner.journal_append_us", journal, "us");
  out.add("service.queue_wait_s_p50", median(queue_wait), "s");
  out.add("service.job_run_s_p50", median(run_s), "s");
  out.add("service.recover_ms", svc.recover_ms, "ms");
  out.add("service.rejected", count(svc.session.rejected), "count");
  out.add("trace.reps_per_s", traced, "1/s");
  out.add("trace.overhead_reps_per_s", untraced_1t - traced, "1/s");
  return out;
}

}  // namespace perfbench
