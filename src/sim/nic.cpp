#include "sim/nic.h"

#include "common/assert.h"
#include "snapshot/codec.h"

namespace rair {

Nic::Nic(NodeId node, AppId appTag, const VcLayout& layout, int routerVcDepth,
         bool atomicVcs)
    : node_(node),
      appTag_(appTag),
      layout_(layout),
      vcDepth_(routerVcDepth),
      atomicVcs_(atomicVcs),
      credits_(static_cast<size_t>(layout.totalVcs()), routerVcDepth),
      headHops_(static_cast<size_t>(layout.totalVcs()), 0) {
  // At most one stream per claimable VC; reserving here keeps the
  // injection path allocation-free.
  active_.reserve(static_cast<size_t>(layout.totalVcs()));
  queues_.reserve(16);  // (class, app) pairs actually seen; grows if more
}

void Nic::connect(LinkLayer* toRouter, LinkLayer* fromRouter) {
  toRouter_ = toRouter;
  fromRouter_ = fromRouter;
  linksNeedTicks_ = toRouter->kind() != LinkLayerKind::Ideal ||
                    fromRouter->kind() != LinkLayerKind::Ideal;
}

Nic::SubQueue& Nic::subQueue(MsgClass cls, AppId app) {
  for (auto& q : queues_) {
    if (q.cls == cls && q.app == app) return q;
  }
  queues_.push_back(SubQueue{cls, app, {}});
  return queues_.back();
}

void Nic::enqueue(const Packet& p) {
  RAIR_CHECK(p.src == node_);
  RAIR_CHECK(static_cast<int>(p.msgClass) < layout_.numClasses());
  subQueue(p.msgClass, p.app).packets.push_back(p);
}

std::size_t Nic::queuedPackets() const {
  std::size_t n = active_.size();
  for (const auto& q : queues_) n += q.packets.size();
  return n;
}

bool Nic::quiescent() const { return queuedPackets() == 0; }

int Nic::claimVc(const Packet& p) const {
  const int base = layout_.firstVcOf(p.msgClass);
  const int end = base + layout_.vcsPerClass();
  auto usable = [&](int vc) {
    for (const auto& s : active_)
      if (s.vc == vc) return false;
    // Escape VCs (and all VCs in atomic mode) need a fully drained
    // downstream buffer; non-atomic adaptive VCs need room for the whole
    // packet (deadlock safety, same rule as in-network allocation).
    if (atomicVcs_ || layout_.isEscape(vc))
      return credits_[static_cast<size_t>(vc)] == vcDepth_;
    return credits_[static_cast<size_t>(vc)] >= p.numFlits;
  };
  if (!layout_.rairPartition()) {
    for (int vc = base + 1; vc < end; ++vc)
      if (usable(vc)) return vc;
    if (usable(base)) return base;  // escape VC as last resort
    return -1;
  }
  const bool native = appTag_ != kNoApp && p.app == appTag_;
  const VcClass preferred = native ? VcClass::Regional : VcClass::Global;
  int fallback = -1;
  for (int vc = base + 1; vc < end; ++vc) {
    if (!usable(vc)) continue;
    if (layout_.typeOf(vc) == preferred) return vc;
    if (fallback < 0) fallback = vc;
  }
  if (fallback >= 0) return fallback;
  if (usable(base)) return base;
  return -1;
}

void Nic::tick(Cycle now) {
  RAIR_CHECK_MSG(toRouter_ && fromRouter_, "NIC not connected");

  // Credits returned by the router's Local input port.
  while (const CreditMsg* credit = toRouter_->peekCredit(now)) {
    auto& c = credits_[static_cast<size_t>(credit->vc)];
    toRouter_->popCredit();
    ++c;
    RAIR_CHECK_MSG(c <= vcDepth_, "NIC credit overflow");
  }

  // Ejection: drain arriving flits, return credits immediately.
  while (const FlitMsg* msg = fromRouter_->peekFlit(now)) {
    const int vc = msg->vc;
    const Flit f = msg->flit;
    fromRouter_->popFlit();
    fromRouter_->sendCredit(now, vc);
    if (isHead(f.type)) headHops_[static_cast<size_t>(vc)] = f.hops;
    if (isTail(f.type) && events_)
      events_->push_back({f.pkt, now, headHops_[static_cast<size_t>(vc)],
                          NicEventRecord::Kind::Delivered});
  }

  injectPhase(now);

  // Link-layer per-cycle hooks. The NIC runs inside phase A, before its
  // own router's beginCycle, so pumping the inject link here keeps
  // same-cycle delivery timing and the single writer-per-phase wire
  // discipline (see link_layer.h). Ideal links need no ticks; the flag
  // computed at connect() keeps them off the per-cycle path entirely.
  if (linksNeedTicks_) {
    toRouter_->tickUpstream(now);
    fromRouter_->tickDownstream(now);
  }
}

void Nic::injectPhase(Cycle now) {
  // VC claims: round-robin over the per-(class, app) sub-queues so one
  // application's backlog cannot monopolize the claim opportunities.
  if (injectFrozen_) return;  // fault freeze: no claims, no injection
  if (!queues_.empty()) {
    const std::size_t nq = queues_.size();
    for (std::size_t off = 0; off < nq; ++off) {
      SubQueue& q = queues_[(rrQueue_ + off) % nq];
      if (q.packets.empty()) continue;
      const int vc = claimVc(q.packets.front());
      if (vc < 0) continue;
      Stream s;
      s.pkt = q.packets.front();
      s.vc = vc;
      q.packets.pop_front();
      active_.push_back(s);
    }
    rrQueue_ = (rrQueue_ + 1) % nq;
  }

  // Inject at most one flit (link bandwidth), round-robin over streams.
  if (active_.empty()) return;
  const std::size_t n = active_.size();
  for (std::size_t off = 0; off < n; ++off) {
    const std::size_t idx = (rrNext_ + off) % n;
    Stream& s = active_[idx];
    if (credits_[static_cast<size_t>(s.vc)] <= 0) continue;
    const Flit f = makeFlit(s.pkt, s.next);
    toRouter_->sendFlit(now, f, s.vc);
    --credits_[static_cast<size_t>(s.vc)];
    if (isHead(f.type) && events_)
      events_->push_back({s.pkt.id, now, 0, NicEventRecord::Kind::Injected});
    ++s.next;
    rrNext_ = (idx + 1) % n;
    if (s.next == s.pkt.numFlits)
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(idx));
    break;
  }
}

void Nic::save(snapshot::Writer& w) const {
  w.u32(static_cast<std::uint32_t>(queues_.size()));
  for (const SubQueue& q : queues_) {
    w.u8(static_cast<std::uint8_t>(q.cls));
    w.u16(static_cast<std::uint16_t>(q.app));
    snapshot::saveRing(w, q.packets, snapshot::savePacket);
  }
  w.u32(static_cast<std::uint32_t>(active_.size()));
  for (const Stream& s : active_) {
    snapshot::savePacket(w, s.pkt);
    w.u16(s.next);
    w.i32(s.vc);
  }
  w.u32(static_cast<std::uint32_t>(credits_.size()));
  for (const int c : credits_) w.i32(c);
  for (const std::uint16_t h : headHops_) w.u16(h);
  w.u64(rrNext_);
  w.u64(rrQueue_);
}

void Nic::restore(snapshot::Reader& r) {
  const std::uint32_t numQueues = r.u32();
  queues_.clear();
  for (std::uint32_t i = 0; i < numQueues; ++i) {
    const auto cls = static_cast<MsgClass>(r.u8());
    const auto app = static_cast<AppId>(r.u16());
    queues_.push_back(SubQueue{cls, app, {}});
    snapshot::restoreRing(r, queues_.back().packets,
                          snapshot::restorePacket);
  }
  const std::uint32_t numActive = r.u32();
  active_.clear();
  for (std::uint32_t i = 0; i < numActive; ++i) {
    Stream s;
    snapshot::restorePacket(r, s.pkt);
    s.next = r.u16();
    s.vc = r.i32();
    active_.push_back(s);
  }
  RAIR_CHECK_MSG(r.u32() == credits_.size(),
                 "nic restore: VC count mismatch");
  for (int& c : credits_) c = r.i32();
  for (std::uint16_t& h : headHops_) h = r.u16();
  rrNext_ = static_cast<std::size_t>(r.u64());
  rrQueue_ = static_cast<std::size_t>(r.u64());
}

}  // namespace rair
