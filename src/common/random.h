#ifndef STRUCTURA_COMMON_RANDOM_H_
#define STRUCTURA_COMMON_RANDOM_H_

#include <cmath>
#include <cstdint>
#include <vector>

namespace structura {

/// Deterministic, fast pseudo-random generator (splitmix64 core). All
/// randomized components of the library (corpus generation, simulated users,
/// sampling) take an explicit `Rng` so runs are reproducible from a seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + 0x9E3779B97F4A7C15ULL) {}

  /// Uniform 64-bit value.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound). `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound) { return Next() % bound; }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Bernoulli draw with success probability `p`.
  bool NextBool(double p) { return NextDouble() < p; }

  /// Approximate standard normal via sum of 12 uniforms (Irwin-Hall).
  double NextGaussian() {
    double s = 0;
    for (int i = 0; i < 12; ++i) s += NextDouble();
    return s - 6.0;
  }

  /// Zipf-like rank draw in [0, n): rank r with weight 1/(r+1)^theta.
  /// Uses inverse-CDF over precomputation-free rejection; adequate for
  /// workload skew generation.
  uint64_t NextZipf(uint64_t n, double theta);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = NextBounded(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t state_;
};

inline uint64_t Rng::NextZipf(uint64_t n, double theta) {
  // Simple two-pass-free approximation: draw u in (0,1], map through the
  // power-law inverse. Good enough for generating skewed workloads.
  double u = NextDouble();
  if (u <= 0) u = 1e-12;
  double x = 1.0;
  if (theta != 1.0) {
    // Inverse of normalized CDF for a continuous power law on [1, n+1].
    double a = 1.0 - theta;
    double hi = 1.0, nn = static_cast<double>(n) + 1.0;
    double pow_nn = std::pow(nn, a);
    x = std::pow(u * (pow_nn - hi) + hi, 1.0 / a);
  } else {
    double nn = static_cast<double>(n) + 1.0;
    x = std::exp(u * std::log(nn));
  }
  uint64_t r = static_cast<uint64_t>(x) - 1;
  return r >= n ? n - 1 : r;
}

}  // namespace structura

#endif  // STRUCTURA_COMMON_RANDOM_H_
