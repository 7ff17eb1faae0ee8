#ifndef SGP_COMMON_RANDOM_H_
#define SGP_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace sgp {

/// Deterministic, fast pseudo-random generator (xoshiro256** seeded through
/// splitmix64). All randomized components of the library take an explicit
/// seed so that every experiment is reproducible bit-for-bit.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x5eed5eed5eedULL) { Seed(seed); }

  /// Re-seeds the generator; the same seed always yields the same stream.
  void Seed(uint64_t seed);

  /// Returns the next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <random> adapters).
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ULL; }
  uint64_t operator()() { return Next(); }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// unbiased multiply-shift reduction.
  uint64_t UniformInt(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1): 53 random bits into the mantissa.
  double UniformReal() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability `p` of returning true.
  bool Bernoulli(double p) { return UniformReal() < p; }

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = UniformInt(i);
      std::swap(values[i - 1], values[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

/// Samples from a Zipf distribution over {0, 1, ..., n-1} with exponent
/// `skew` (skew = 0 degenerates to uniform). Rank r is drawn with
/// probability proportional to 1/(r+1)^skew. Uses the rejection-inversion
/// method of Hörmann and Derflinger, which needs O(1) state and no
/// precomputed table, so it scales to very large n.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double skew);

  /// Draws one sample in [0, n).
  uint64_t Sample(Rng& rng);

  uint64_t n() const { return n_; }
  double skew() const { return skew_; }

 private:
  double H(double x) const;
  double HInverse(double x) const;

  uint64_t n_;
  double skew_;
  double h_x1_;
  double h_n_;
  double s_;
};

}  // namespace sgp

#endif  // SGP_COMMON_RANDOM_H_
