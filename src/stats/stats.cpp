#include "stats/stats.h"

#include <algorithm>

#include "snapshot/codec.h"

namespace rair {

StatsCollector::StatsCollector(int numApps)
    : perApp_(static_cast<size_t>(std::max(numApps, 1))) {}

void StatsCollector::onPacketCreated(const Packet& p) {
  RAIR_CHECK(p.app >= 0 && static_cast<size_t>(p.app) < perApp_.size());
  auto& s = perApp_[static_cast<size_t>(p.app)];
  ++s.packetsCreated;
  if (inMeasurementWindow(p.createCycle)) ++measuredCreated_;
}

void StatsCollector::onPacketDelivered(const Packet& p) {
  RAIR_CHECK(p.app >= 0 && static_cast<size_t>(p.app) < perApp_.size());
  auto& s = perApp_[static_cast<size_t>(p.app)];
  ++s.packetsDelivered;
  s.flitsDelivered += p.numFlits;
  if (!inMeasurementWindow(p.createCycle)) return;
  ++measuredDelivered_;
  s.totalLatency.record(static_cast<double>(p.totalLatency()));
  s.networkLatency.record(static_cast<double>(p.networkLatency()));
  s.hops.record(static_cast<double>(p.hops));
}

void StatsCollector::onPacketDropped(const Packet& p) {
  RAIR_CHECK(p.app >= 0 && static_cast<size_t>(p.app) < perApp_.size());
  ++perApp_[static_cast<size_t>(p.app)].packetsDropped;
  if (inMeasurementWindow(p.createCycle)) ++measuredDropped_;
}

double StatsCollector::aplLowerBound(AppId a, std::uint64_t inFlight,
                                     std::uint64_t inFlightAge) const {
  const LatencyStats& lat = app(a).totalLatency;
  const std::uint64_t count = lat.count() + inFlight;
  const double sum = lat.sum() + static_cast<double>(inFlightAge);
  return count ? sum / static_cast<double>(count) : 0.0;
}

AppStats StatsCollector::overall() const {
  AppStats agg;
  for (const auto& s : perApp_) {
    agg.totalLatency.merge(s.totalLatency);
    agg.networkLatency.merge(s.networkLatency);
    agg.hops.merge(s.hops);
    agg.packetsCreated += s.packetsCreated;
    agg.packetsDelivered += s.packetsDelivered;
    agg.flitsDelivered += s.flitsDelivered;
    agg.packetsDropped += s.packetsDropped;
  }
  return agg;
}

void StatsCollector::save(snapshot::Writer& w) const {
  w.u32(static_cast<std::uint32_t>(perApp_.size()));
  for (const AppStats& s : perApp_) {
    snapshot::saveHistogram(w, s.totalLatency);
    snapshot::saveHistogram(w, s.networkLatency);
    snapshot::saveHistogram(w, s.hops);
    w.u64(s.packetsCreated);
    w.u64(s.packetsDelivered);
    w.u64(s.flitsDelivered);
    w.u64(s.packetsDropped);
  }
  w.u64(measureStart_);
  w.u64(measureEnd_);
  w.u64(measuredCreated_);
  w.u64(measuredDelivered_);
  w.u64(measuredDropped_);
}

void StatsCollector::restore(snapshot::Reader& r) {
  RAIR_CHECK_MSG(r.u32() == perApp_.size(),
                 "stats restore: app count mismatch");
  for (AppStats& s : perApp_) {
    snapshot::restoreHistogram(r, s.totalLatency);
    snapshot::restoreHistogram(r, s.networkLatency);
    snapshot::restoreHistogram(r, s.hops);
    s.packetsCreated = r.u64();
    s.packetsDelivered = r.u64();
    s.flitsDelivered = r.u64();
    s.packetsDropped = r.u64();
  }
  measureStart_ = r.u64();
  measureEnd_ = r.u64();
  measuredCreated_ = r.u64();
  measuredDelivered_ = r.u64();
  measuredDropped_ = r.u64();
}

double StatsCollector::overallApl() const {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const auto& s : perApp_) {
    sum += s.totalLatency.sum();
    n += s.totalLatency.count();
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace rair
