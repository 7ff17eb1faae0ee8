#ifndef SGP_COMMON_TIMER_H_
#define SGP_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace sgp {

/// Monotonic stopwatch used to time partitioning runs (the paper's
/// "partitioning time" metric, Section 4.1) and as the single clock
/// implementation behind the telemetry layer's ScopedTimer.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed monotonic nanoseconds since construction or the last
  /// Reset(). The primitive the floating-point accessors derive from.
  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  /// Elapsed seconds since construction or the last Reset().
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) * 1e-9;
  }

  /// Elapsed milliseconds since construction or the last Reset().
  double ElapsedMillis() const {
    return static_cast<double>(ElapsedNanos()) * 1e-6;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace sgp

#endif  // SGP_COMMON_TIMER_H_
