// Measurement collection: per-packet latency accounting, per-application
// aggregation, and network-level counters.
//
// The paper reports Average Packet Latency (APL): creation-to-delivery
// latency including source queuing, averaged over packets injected during
// the measurement window (after warmup). StatsCollector implements exactly
// that protocol: packets created before measurement starts are ignored;
// packets created during the window are counted when delivered (the
// simulator drains after the window so measured packets complete).
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "metrics/histogram.h"
#include "packet/packet.h"

namespace rair::snapshot {
class Writer;
class Reader;
}  // namespace rair::snapshot

namespace rair {

/// Running scalar statistics plus a coarse power-of-two histogram. The
/// implementation lives in the metrics subsystem (metrics/histogram.h) so
/// dimensioned registry metrics and per-app latency accounting share one
/// numeric definition; this alias keeps the historical stats-layer name.
using LatencyStats = metrics::Histogram;

/// Aggregated results for one application.
struct AppStats {
  LatencyStats totalLatency;    ///< creation -> delivery (the paper's APL)
  LatencyStats networkLatency;  ///< injection -> delivery
  LatencyStats hops;
  std::uint64_t packetsCreated = 0;
  std::uint64_t packetsDelivered = 0;
  std::uint64_t flitsDelivered = 0;
  std::uint64_t packetsDropped = 0;  ///< removed by fault injection
};

/// Collects statistics for a simulation run.
class StatsCollector {
 public:
  explicit StatsCollector(int numApps);

  /// Starts the measurement window; packets created from `cycle` onward
  /// (strictly: createCycle >= cycle) are measured.
  void startMeasurement(Cycle cycle) { measureStart_ = cycle; }
  /// Ends packet admission into the measured set (packets created at or
  /// after `cycle` are ignored, e.g. created during drain).
  void stopMeasurement(Cycle cycle) { measureEnd_ = cycle; }

  bool inMeasurementWindow(Cycle createCycle) const {
    return createCycle >= measureStart_ && createCycle < measureEnd_;
  }

  void onPacketCreated(const Packet& p);
  void onPacketDelivered(const Packet& p);
  /// Fault injection removed `p` (never delivered). Dropped packets leave
  /// the measured set so the drain phase still terminates.
  void onPacketDropped(const Packet& p);

  /// Number of measured packets still in flight (created in window, not
  /// yet delivered or dropped). Drain completes when this reaches zero.
  std::uint64_t measuredInFlight() const {
    return measuredCreated_ - measuredDelivered_ - measuredDropped_;
  }

  const AppStats& app(AppId a) const {
    RAIR_CHECK(a >= 0 && static_cast<size_t>(a) < perApp_.size());
    return perApp_[static_cast<size_t>(a)];
  }
  int numApps() const { return static_cast<int>(perApp_.size()); }

  /// Aggregate over all applications.
  AppStats overall() const;

  /// Mean APL over all measured packets (all apps pooled).
  double overallApl() const;

  /// APL of one application.
  double appApl(AppId a) const { return app(a).totalLatency.mean(); }

  /// Lower bound on the APL app `a` will report once its `inFlight`
  /// measured packets still in flight have been delivered, given that they
  /// have already waited `inFlightAge` cycles in total (sum of now -
  /// createCycle): (latency sum so far + inFlightAge) / measured count, in
  /// the floating-point expression of Histogram::mean(). Latencies are
  /// integral and their sums stay below 2^53, so the numerator is exact
  /// and the rounded quotient is <= the final APL bit for bit. Valid only
  /// once the measurement window has closed (the measured count is final)
  /// and while nothing is dropped.
  double aplLowerBound(AppId a, std::uint64_t inFlight,
                       std::uint64_t inFlightAge) const;

  /// Snapshot hooks. restore() requires a collector constructed with the
  /// same numApps as the one saved.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  std::vector<AppStats> perApp_;
  Cycle measureStart_ = 0;
  Cycle measureEnd_ = kNeverCycle;
  std::uint64_t measuredCreated_ = 0;
  std::uint64_t measuredDelivered_ = 0;
  std::uint64_t measuredDropped_ = 0;
};

}  // namespace rair
