// Streaming statistics used by the experiment harness.
//
// Accumulator implements Welford's online algorithm, which is numerically
// stable for long Monte-Carlo runs; Histogram provides fixed-width bins
// for distribution plots (e.g. inquiry completion time spread).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/snapshot.hpp"

namespace btsc::stats {

/// Online mean / variance / extrema of a stream of doubles.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  /// Mean of the samples; 0 if empty.
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  /// Standard error of the mean.
  double sem() const;
  /// Half-width of the 95% confidence interval (normal approximation).
  double ci95_half_width() const { return 1.959963985 * sem(); }
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return n_ > 0 ? mean_ * static_cast<double>(n_) : 0.0; }

  /// Merges another accumulator (parallel reduction), preserving exact
  /// mean/variance as if all samples were added to one accumulator.
  void merge(const Accumulator& other);

  // ---- checkpointing ----
  void save_state(sim::SnapshotWriter& w) const {
    w.u64(n_);
    w.f64(mean_);
    w.f64(m2_);
    w.f64(min_);
    w.f64(max_);
  }
  void restore_state(sim::SnapshotReader& r) {
    n_ = static_cast<std::size_t>(r.u64());
    mean_ = r.f64();
    m2_ = r.f64();
    min_ = r.f64();
    max_ = r.f64();
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width binned histogram over [lo, hi); out-of-range samples are
/// counted in saturating edge bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double bin_low(std::size_t i) const;
  double bin_high(std::size_t i) const { return bin_low(i + 1); }
  /// p in [0,1]; returns the lower edge of the bin containing quantile p.
  double quantile(double p) const;

  std::string to_string(std::size_t max_width = 50) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Ratio counter for success probabilities with a Wilson 95% interval,
/// appropriate for the small sample counts of the failure-probability
/// experiment (Fig. 8).
class RatioCounter {
 public:
  void add(bool success) {
    ++n_;
    if (success) ++k_;
  }
  std::size_t trials() const { return n_; }
  std::size_t successes() const { return k_; }

  /// Merges another counter (parallel reduction); order-independent.
  void merge(const RatioCounter& other) {
    n_ += other.n_;
    k_ += other.k_;
  }

  double ratio() const {
    return n_ > 0 ? static_cast<double>(k_) / static_cast<double>(n_) : 0.0;
  }
  /// Wilson score interval [lo, hi] at 95% confidence; exactly 0 below
  /// when no trial succeeded and exactly 1 above when every one did.
  std::pair<double, double> wilson95() const;

  // ---- checkpointing ----
  void save_state(sim::SnapshotWriter& w) const {
    w.u64(n_);
    w.u64(k_);
  }
  void restore_state(sim::SnapshotReader& r) {
    n_ = static_cast<std::size_t>(r.u64());
    k_ = static_cast<std::size_t>(r.u64());
  }

 private:
  std::size_t n_ = 0;
  std::size_t k_ = 0;
};

}  // namespace btsc::stats
