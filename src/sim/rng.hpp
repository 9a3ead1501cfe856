// Deterministic pseudo-random number generation for simulations.
//
// The kernel deliberately does not use std::mt19937 or std::random_device:
// every experiment must be exactly reproducible from a single integer seed
// across platforms and standard-library versions. xoshiro256** (Blackman &
// Vigna) is small, fast and has well-understood statistical quality. No
// model path uses libm: every distribution here is built from integer and
// correctly rounded IEEE arithmetic only, so its draws are bit-identical
// wherever the build runs.
#pragma once

#include <array>
#include <cstdint>

namespace btsc::sim {

/// xoshiro256** pseudo-random generator with convenience distributions.
///
/// A default-constructed generator is seeded with a fixed constant; pass a
/// seed to get independent deterministic streams.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Re-initialises the state from a 64-bit seed via splitmix64, which
  /// guarantees a non-zero, well-mixed state for any seed value.
  void reseed(std::uint64_t seed);

  /// Raw 64 random bits.
  std::uint64_t next();

  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ull; }
  std::uint64_t operator()() { return next(); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Fills `words` with an error mask of `nbits` bits: bit i is set with
  /// probability p, independently. Walks a fresh FlipProcess on this
  /// stream -- the sampler phy::NoisyChannel runs -- so it draws once per
  /// flip, not once per bit; p <= 0 and p >= 1 draw nothing. Unused high
  /// bits of the last word are cleared; words beyond the mask are not
  /// touched. `words` must hold ceil(nbits/64) entries.
  void fill_error_mask(std::uint64_t* words, std::size_t nbits, double p);

  /// Derives the seed of an independent stream addressed by a
  /// (stream, index) pair under `base` — e.g. (point index, replication
  /// index) in a Monte-Carlo sweep. Pure function of its arguments: the
  /// result never depends on how many other streams exist or on the order
  /// they are derived in, which is what makes sharded sweeps bitwise
  /// reproducible at any thread count.
  static std::uint64_t derive_stream_seed(std::uint64_t base,
                                          std::uint64_t stream,
                                          std::uint64_t index);

  /// Raw xoshiro256** state, for checkpointing. set_state() resumes the
  /// stream exactly where state() captured it (an all-zero state is
  /// invalid and rejected by re-seeding with the fixed default).
  const std::array<std::uint64_t, 4>& state() const { return s_; }
  void set_state(const std::array<std::uint64_t, 4>& s);

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Independent bit flips with probability p on a private stream, walked
/// as "clean bits until the next flip": one gap counter, refilled by a
/// geometric draw each time a flip is passed. step() advances it by one
/// bit, walk() by a whole run; interleaving them in any split of the same
/// bit sequence flips the same bits and leaves the same state.
///
/// The gap G (P(G = g) = (1-p)^g p) is drawn by inverse CDF against a
/// 64-entry threshold table 1 - (1-p)^(k+1), built by repeated
/// multiplication when p is set: one uniform01() per step, and past the
/// last entry (G >= 64) the step adds 64 and draws again, which is exact
/// because the geometric distribution is memoryless. p <= 0 never flips
/// and p >= 1 always flips; neither draws.
class FlipProcess {
 public:
  /// Runs on a copy of `stream` as the process's own stream.
  FlipProcess(const Rng& stream, double p) : rng_(stream) { set_p(p); }

  /// Restarts the stream from `seed` and draws a fresh gap.
  void reseed(std::uint64_t seed) { rng_.reseed(seed); redraw(); }

  /// Sets the flip probability (clamped to [0, 1]) and draws a fresh gap
  /// under it: a gap drawn at the old p would bias the next flip.
  void set_p(double p);
  double p() const { return p_; }

  /// Advances one bit; true when that bit flips.
  bool step() {
    if (p_ <= 0.0 || gap_-- > 0) return false;
    gap_ = draw_gap();  // this bit flips; gap_ wrapped, now refilled
    return true;
  }

  /// Advances `nbits` bits, setting the flip positions in `words` (bit i
  /// of the run is bit i%64 of words[i/64]; set bits are only ever
  /// added, so the caller clears the words). nullptr only advances.
  void walk(std::uint64_t* words, std::size_t nbits);

  /// Everything the process carries from one bit to the next, for
  /// checkpoints and for replaying a prefix of a walked run.
  struct State {
    std::array<std::uint64_t, 4> rng{};
    std::uint64_t gap = 0;
    bool operator==(const State&) const = default;
  };
  State state() const { return {rng_.state(), gap_}; }
  void set_state(const State& s) { rng_.set_state(s.rng); gap_ = s.gap; }

  const Rng& stream() const { return rng_; }

 private:
  void redraw() { gap_ = p_ > 0.0 ? draw_gap() : 0; }
  std::uint64_t draw_gap();

  Rng rng_;
  double p_ = 0.0;
  std::uint64_t gap_ = 0;
  /// cdf_[k] = P(G <= k) = 1 - (1-p)^(k+1); unused while p <= 0.
  std::array<double, 64> cdf_{};
};

}  // namespace btsc::sim
