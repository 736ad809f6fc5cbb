// Network interface controller: open-loop source queues on the injection
// side, an infinite sink on the ejection side.
//
// Injection performs the upstream half of VC allocation for the router's
// Local input port: a queued packet claims a free input VC of its message
// class (atomic: VC idle and fully credited), then streams its flits at
// one flit per cycle subject to credits, with round-robin interleaving
// among in-flight packets. Under RAIR the VC claim follows the same class
// preference as in-network allocation: native packets try Regional VCs
// first, foreign ones Global first.
//
// Source queues are kept per (message class, application): on consolidated
// chips each VM/application has its own injection queue at the interface,
// so a misbehaving application's backlog cannot head-of-line block another
// application's packets before they even reach the network (it can only
// compete for VCs and link bandwidth, where the router's policies act).
//
// Ejection drains at link rate (one flit per cycle), returning a credit
// per flit immediately — the model of an always-ready receiving core.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ring.h"
#include "link/link_layer.h"
#include "packet/packet.h"
#include "router/vc.h"

namespace rair::snapshot {
class Writer;
class Reader;
}  // namespace rair::snapshot

namespace rair {

namespace check {
class NetworkOracle;  // read-only auditor of NIC internals (src/check/)
}

namespace fault {
class FaultInjector;  // fault-event application (src/fault/)
}

/// One NIC lifecycle event, appended to the NIC's shard log and replayed
/// by the cycle engine (sim/shard.h) in ascending node order. Injected:
/// the head flit left the NIC. Delivered: the tail flit was ejected.
struct NicEventRecord {
  enum class Kind : std::uint8_t { Injected, Delivered };
  PacketId id;
  Cycle when;
  std::uint16_t hops;  ///< Delivered only: hop count seen by the head
  Kind kind;
};

class Nic {
 public:
  /// @param appTag app mapped on this node (used for the RAIR VC-class
  ///        preference when claiming an injection VC).
  Nic(NodeId node, AppId appTag, const VcLayout& layout, int routerVcDepth,
      bool atomicVcs);

  /// `toRouter`: NIC is the upstream side. `fromRouter`: downstream side.
  void connect(LinkLayer* toRouter, LinkLayer* fromRouter);

  /// Queues a packet for injection (source queues are unbounded: open-loop
  /// measurement per Dally & Towles).
  void enqueue(const Packet& p);

  /// Called once per cycle (before the routers) — receives credits,
  /// ejects arriving flits, injects at most one flit.
  void tick(Cycle now);

  /// Registers the log lifecycle events are appended to (the cycle
  /// engine's per-shard buffer); may be null to drop events.
  void setEventLog(std::vector<NicEventRecord>* log) { events_ = log; }

  NodeId node() const { return node_; }
  std::size_t queuedPackets() const;
  bool quiescent() const;

  /// Snapshot hooks. Sub-queues are recreated in saved order (their order
  /// is behavioural: the VC-claim round-robin walks them by index).
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  friend class check::NetworkOracle;
  friend class fault::FaultInjector;

  struct Stream {
    Packet pkt;
    std::uint16_t next = 0;  ///< next flit index to send (makeFlit builds it)
    int vc = -1;             ///< claimed router-input VC
  };

  /// Tries to claim an injection VC for the head of `queue`; returns the
  /// VC index or -1.
  int claimVc(const Packet& p) const;

  /// VC claims + the at-most-one-flit injection of tick(). Split out so
  /// tick() always reaches the link layers' per-cycle hooks afterwards.
  void injectPhase(Cycle now);

  struct SubQueue {
    MsgClass cls;
    AppId app;
    RingQueue<Packet> packets;
  };
  SubQueue& subQueue(MsgClass cls, AppId app);

  NodeId node_;
  AppId appTag_;
  VcLayout layout_;
  int vcDepth_;
  bool atomicVcs_;
  LinkLayer* toRouter_ = nullptr;
  LinkLayer* fromRouter_ = nullptr;
  /// Whether either link has non-no-op per-cycle hooks (kind != Ideal);
  /// keeps the tick calls off the per-cycle path on ideal networks.
  bool linksNeedTicks_ = false;

  std::vector<SubQueue> queues_;  ///< one per (message class, application)
  std::vector<Stream> active_;    ///< packets mid-injection
  std::vector<int> credits_;      ///< per router-local-input VC
  std::vector<std::uint16_t> headHops_;  ///< hops of in-flight head per VC
  std::size_t rrNext_ = 0;       ///< round-robin over active_
  std::size_t rrQueue_ = 0;      ///< round-robin over queues_ for VC claims
  std::vector<NicEventRecord>* events_ = nullptr;
  /// Fault-injected injection freeze: claims and injection stop, credits
  /// and ejection continue. Maintained by the fault injector; not
  /// serialized — the snapshot's fault section re-applies it on restore.
  bool injectFrozen_ = false;
};

}  // namespace rair
