#include "sim/rng.hpp"

#include <algorithm>

namespace btsc::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next();  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return lo + v % span;
}

double Rng::uniform01() {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

void Rng::fill_error_mask(std::uint64_t* words, std::size_t nbits, double p) {
  std::fill_n(words, (nbits + 63) / 64, 0ull);
  FlipProcess flips(*this, p);
  flips.walk(words, nbits);
  *this = flips.stream();
}

std::uint64_t Rng::derive_stream_seed(std::uint64_t base, std::uint64_t stream,
                                      std::uint64_t index) {
  // Chain three splitmix64 steps so every input word is fully mixed before
  // the next one is folded in; distinct (base, stream, index) triples give
  // uncorrelated seeds even for adjacent indices.
  std::uint64_t x = base;
  std::uint64_t s = splitmix64(x);
  x = s ^ (stream * 0xBF58476D1CE4E5B9ull);
  s = splitmix64(x);
  x = s ^ (index * 0x94D049BB133111EBull);
  return splitmix64(x);
}

void Rng::set_state(const std::array<std::uint64_t, 4>& s) {
  s_ = s;
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    reseed(0x9E3779B97F4A7C15ull);
  }
}

void FlipProcess::set_p(double p) {
  p_ = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  // (1-p)^(k+1) by repeated multiplication: every step is one correctly
  // rounded IEEE product, so the table is the same on every platform.
  const double q = 1.0 - p_;
  double tail = 1.0;
  for (double& c : cdf_) {
    tail *= q;
    c = 1.0 - tail;
  }
  redraw();
}

std::uint64_t FlipProcess::draw_gap() {
  if (cdf_[0] >= 1.0) return 0;  // p == 1 (to double precision)
  std::uint64_t skipped = 0;
  for (;;) {
    const double u = rng_.uniform01();
    if (u < cdf_[63]) {
      // Branch-free search for the first k with u < cdf_[k].
      std::size_t k = 0;
      for (std::size_t half = 32; half > 0; half >>= 1) {
        if (cdf_[k + half - 1] <= u) k += half;
      }
      return skipped + k;
    }
    skipped += 64;  // G >= 64: memoryless, so draw the rest afresh
  }
}

void FlipProcess::walk(std::uint64_t* words, std::size_t nbits) {
  if (p_ <= 0.0) return;
  std::uint64_t pos = gap_;
  while (pos < nbits) {
    if (words != nullptr) words[pos / 64] |= 1ull << (pos % 64);
    pos += 1 + draw_gap();
  }
  gap_ = pos - nbits;
}

}  // namespace btsc::sim
