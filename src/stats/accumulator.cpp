#include "stats/accumulator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace btsc::stats {

void Accumulator::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::sem() const {
  if (n_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

void Accumulator::merge(const Accumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)) {
  if (bins == 0 || hi <= lo) {
    throw std::invalid_argument("Histogram: bad range or zero bins");
  }
  counts_.assign(bins, 0);
}

void Histogram::add(double x) {
  std::size_t idx;
  if (x < lo_) {
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<std::size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);
  }
  ++counts_[idx];
  ++total_;
}

double Histogram::bin_low(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::quantile(double p) const {
  if (total_ == 0) return lo_;
  const double target = p * static_cast<double>(total_);
  double running = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    running += static_cast<double>(counts_[i]);
    if (running >= target) return bin_low(i);
  }
  return hi_;
}

std::string Histogram::to_string(std::size_t max_width) const {
  std::size_t peak = 0;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::size_t bar =
        peak == 0 ? 0 : counts_[i] * max_width / peak;
    os << '[' << bin_low(i) << ", " << bin_high(i) << ") "
       << std::string(bar, '#') << ' ' << counts_[i] << '\n';
  }
  return os.str();
}

std::pair<double, double> RatioCounter::wilson95() const {
  if (n_ == 0) return {0.0, 1.0};
  constexpr double z = 1.959963985;
  const double n = static_cast<double>(n_);
  const double p = ratio();
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double centre = p + z2 / (2.0 * n);
  const double margin = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  // At k = 0 and k = n the score interval touches 0 and 1 exactly; the
  // closed form only gets there up to rounding (1 - 2^-52 and the like).
  return {k_ == 0 ? 0.0 : std::max(0.0, (centre - margin) / denom),
          k_ == n_ ? 1.0 : std::min(1.0, (centre + margin) / denom)};
}

}  // namespace btsc::stats
