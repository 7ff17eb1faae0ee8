#include "common/random.h"

#include <cmath>

namespace sgp {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Rng::UniformInt(uint64_t bound) {
  SGP_DCHECK(bound > 0);
  // Lemire's multiply-shift with rejection to remove modulo bias.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInRange(int64_t lo, int64_t hi) {
  SGP_DCHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

ZipfSampler::ZipfSampler(uint64_t n, double skew) : n_(n), skew_(skew) {
  SGP_CHECK(n >= 1);
  SGP_CHECK(skew >= 0.0);
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n) + 0.5);
  s_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -skew));
}

double ZipfSampler::H(double x) const {
  if (skew_ == 1.0) return std::log(x);
  return (std::pow(x, 1.0 - skew_) - 1.0) / (1.0 - skew_);
}

double ZipfSampler::HInverse(double x) const {
  if (skew_ == 1.0) return std::exp(x);
  return std::pow(1.0 + x * (1.0 - skew_), 1.0 / (1.0 - skew_));
}

uint64_t ZipfSampler::Sample(Rng& rng) {
  if (skew_ == 0.0 || n_ == 1) return rng.UniformInt(n_);
  while (true) {
    double u = h_n_ + rng.UniformReal() * (h_x1_ - h_n_);
    double x = HInverse(u);
    uint64_t k = static_cast<uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    double kd = static_cast<double>(k);
    if (kd - x <= s_ || u >= H(kd + 0.5) - std::pow(kd, -skew_)) {
      return k - 1;  // map rank 1..n to id 0..n-1
    }
  }
}

}  // namespace sgp
