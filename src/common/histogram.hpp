// Integer-bucket histogram used for the paper's Figures 1, 3 and 7
// (number of instructions dependent on a long-latency load).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tlrob {

/// Histogram over non-negative integer samples with a fixed number of unit
/// buckets; samples beyond the last bucket are clamped into it (an explicit
/// overflow bucket, matching the "31+" right edge of the paper's figures).
class Histogram {
 public:
  /// Buckets cover values 0 .. max_value; anything larger lands in the
  /// max_value bucket.
  explicit Histogram(u32 max_value = 31) : buckets_(max_value + 1, 0) {}

  void record(u64 value);
  void reset();

  u32 max_value() const { return static_cast<u32>(buckets_.size()) - 1; }
  u64 bucket(u32 value) const { return buckets_.at(value); }
  u64 total_samples() const { return total_; }

  /// Mean of recorded samples (using true values, not clamped ones).
  double mean() const { return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_); }

  /// Nearest-rank percentile over the recorded (clamped) values: the
  /// smallest bucket value v such that at least ceil(p/100 * samples)
  /// samples are <= v. `p` is clamped to [0, 100]; an empty histogram
  /// yields 0. Samples that overflowed into the saturating last bucket
  /// report max_value() (the clamped value — the histogram cannot know
  /// more). Used by the interval sampler's occupancy summaries.
  u64 percentile(double p) const;

  /// Merges another histogram with identical bucket count.
  void merge(const Histogram& other);

  /// Prints "value count" lines; `label` prefixes each line when non-empty.
  void print(std::ostream& os, const std::string& label = "") const;

  bool operator==(const Histogram&) const = default;

 private:
  std::vector<u64> buckets_;
  u64 total_ = 0;
  double sum_ = 0;  // of true (unclamped) values
};

}  // namespace tlrob
