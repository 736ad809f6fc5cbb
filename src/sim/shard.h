// Deterministic sharded cycle engine: the simulator's one way to step a
// cycle, with optional space-partitioned parallelism over the flattened
// Network.
//
// The network is split into contiguous node ranges (shards), one worker
// thread per shard, and every cycle runs as two barrier-separated fused
// phases (see Network::phaseInjectRoute / phaseTraversePropagate). One
// shard runs the same schedule inline on the caller (Network::step), with
// no pool. The partition is sound because each phase only ever mutates
// shard-local state: a router's phase methods touch its own buffers plus
// its own side of the attached links, and the two DelayPipes of a
// cross-shard link (flits downstream, credits upstream) are each written
// by exactly one endpoint per phase. The one cross-cutting side effect —
// NIC lifecycle events into the simulator's packet ledger — is logged per
// shard during the NIC phase and replayed on the coordinator in canonical
// shard order (= ascending node order) after both phases. The packet
// pool's free list is order-dependent and snapshot-serialized, so replay
// order is part of byte-identity.
//
// Determinism contract: results, statistics, observer callback sequences
// and snapshot bytes are identical for any shard count. There is no
// per-shard RNG to split: traffic sources tick on the coordinator before
// the phases run, so the parallel section consumes no random numbers at
// all.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/network.h"

namespace rair {

class ShardEngine {
 public:
  /// Partitions `net` (which must outlive the engine) into `numShards`
  /// contiguous node ranges and points every NIC's event log at its
  /// shard's buffer.
  ShardEngine(Network& net, int numShards);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Advances the network one cycle, then hands the cycle's NIC events to
  /// `replay` on the calling thread in shard order and clears the logs.
  template <typename Replay>
  void step(Cycle now, Replay&& replay) {
    advance(now);
    for (Shard& s : shards_) {
      for (const NicEventRecord& e : s.events) replay(e);
      s.events.clear();
    }
  }

 private:
  struct Shard {
    NodeId begin = 0;
    NodeId end = 0;
    std::vector<NicEventRecord> events;  ///< written by its worker only
  };

  enum class Phase : std::uint8_t { InjectRoute, TraversePropagate };

  /// Runs both phases of cycle `now` over every shard.
  void advance(Cycle now);
  void runShardPhase(Phase p, const Shard& s, Cycle now);
  /// Runs `p` on every shard (shard 0 on the calling thread) and returns
  /// once all shards completed — the per-phase barrier.
  void dispatch(Phase p, Cycle now);
  void workerLoop(std::size_t shardIndex);

  Network* net_;
  std::vector<Shard> shards_;

  // Phase hand-off: the coordinator publishes (phase_, cycle_) with a
  // release store to epoch_; workers run the phase and count down via
  // done_. Both waits spin briefly, then park on the atomic (so an
  // oversubscribed host — more shards than cores — degrades to futex
  // waits instead of burning the shared core).
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> done_{0};
  Phase phase_ = Phase::InjectRoute;
  Cycle cycle_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;  ///< shards 1..N-1
};

}  // namespace rair
