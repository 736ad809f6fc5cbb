#include "sim/shard.h"

#include "common/assert.h"

namespace rair {

namespace {

/// Spin iterations before parking on an atomic wait. Long enough to catch
/// the common case where the sibling shards finish within the same
/// scheduling quantum, short enough that a single-core host falls through
/// to the futex quickly.
constexpr int kSpinIterations = 2048;

}  // namespace

ShardEngine::ShardEngine(Network& net, int numShards) : net_(&net) {
  RAIR_CHECK_MSG(numShards >= 1, "ShardEngine with no shards");
  const NodeId numNodes = net.mesh().numNodes();
  shards_.resize(static_cast<std::size_t>(numShards));
  const NodeId base = numNodes / numShards;
  const NodeId rem = numNodes % numShards;
  NodeId next = 0;
  for (NodeId s = 0; s < numShards; ++s) {
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    shard.begin = next;
    next += base + (s < rem ? 1 : 0);
    shard.end = next;
    shard.events.reserve(64);
    for (NodeId n = shard.begin; n < shard.end; ++n)
      net_->nic(n).setEventLog(&shard.events);
  }
  RAIR_CHECK(next == numNodes);
  workers_.reserve(shards_.size() - 1);
  for (std::size_t i = 1; i < shards_.size(); ++i)
    workers_.emplace_back([this, i] { workerLoop(i); });
}

ShardEngine::~ShardEngine() {
  stop_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& w : workers_) w.join();
}

void ShardEngine::runShardPhase(Phase p, const Shard& s, Cycle now) {
  switch (p) {
    case Phase::InjectRoute:
      net_->phaseInjectRoute(now, s.begin, s.end);
      break;
    case Phase::TraversePropagate:
      net_->phaseTraversePropagate(now, s.begin, s.end);
      break;
  }
}

void ShardEngine::dispatch(Phase p, Cycle now) {
  phase_ = p;
  cycle_ = now;
  done_.store(0, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  runShardPhase(p, shards_[0], now);
  const auto target = static_cast<std::uint32_t>(workers_.size());
  for (;;) {
    const std::uint32_t d = done_.load(std::memory_order_acquire);
    if (d == target) break;
    for (int i = 0; i < kSpinIterations; ++i) {
      if (done_.load(std::memory_order_acquire) == target) return;
    }
    done_.wait(d, std::memory_order_acquire);
  }
}

void ShardEngine::workerLoop(std::size_t shardIndex) {
  std::uint32_t seen = 0;
  for (;;) {
    for (int i = 0; i < kSpinIterations; ++i) {
      if (epoch_.load(std::memory_order_acquire) != seen) break;
    }
    epoch_.wait(seen, std::memory_order_acquire);
    seen = epoch_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_relaxed)) return;
    runShardPhase(phase_, shards_[shardIndex], cycle_);
    done_.fetch_add(1, std::memory_order_release);
    done_.notify_one();
  }
}

void ShardEngine::advance(Cycle now) {
  if (workers_.empty()) {
    // Single shard: same fused-phase schedule, no hand-off machinery.
    net_->step(now);
    return;
  }
  dispatch(Phase::InjectRoute, now);
  net_->phaseRetireCongestion();
  dispatch(Phase::TraversePropagate, now);
}

}  // namespace rair
