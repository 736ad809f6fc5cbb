// Pluggable link layer: the contract between router/NIC ports and the
// point-to-point channel beneath them.
//
// A LinkLayer models one directed physical channel (at most one flit
// enters per cycle, arriving `latency` cycles later) plus its reverse
// wire carrying credits back upstream. Two implementations exist:
//
//  - IdealLink (below): the lossless channel the paper assumes — two
//    delay pipes, nothing else. Byte-identical in behavior and snapshot
//    format to the pre-refactor concrete Link.
//  - RetxLink (below): a CRC/retransmission layer with per-link
//    sequence numbers, a bounded replay buffer, cumulative ACK/NAK
//    control piggybacked on the credit wire and go-back-N recovery,
//    enabling transient-fault (flit corruption) modeling.
//
// Call-site contract (who calls what, in which engine phase):
//  - The upstream endpoint calls sendFlit/peekCredit/popCredit and, once
//    per cycle after its send phase, tickUpstream (the replay pump).
//  - The downstream endpoint calls peekFlit/popFlit/sendCredit and, once
//    per cycle after its receive+send phases, tickDownstream (the staged
//    ACK/NAK flush).
// Each wire is thereby written by exactly one endpoint in exactly one
// engine phase, which is what keeps the sharded cycle engine
// race-free and retransmission byte-identical across shard-thread
// counts (DESIGN.md §5d).
//
// The hot-path methods are non-virtual and dispatch on the kind tag so
// an ideal link compiles to exactly the pre-refactor pipe operations;
// only non-ideal layers pay a virtual call, and only when it can do
// something: peeks at a wire with nothing due and the per-cycle hooks of
// a link with nothing staged return inline (see the fast paths at the
// end of this file). Introspection (oracle views), fault hooks and
// snapshot save/restore are virtual — they run off the per-cycle path.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "common/assert.h"
#include "common/types.h"
#include "link/pipe.h"

namespace rair {

namespace snapshot {
class Writer;
class Reader;
}  // namespace snapshot

/// Which link-layer implementation a network is wired with
/// (NetworkConfig::linkLayer). Values are serialized into scenario keys;
/// append only.
enum class LinkLayerKind : std::uint8_t { Ideal = 0, Retx = 1 };

/// Stable lowercase names ("ideal", "retx") for CLI flags and logs.
const char* linkLayerKindName(LinkLayerKind kind);
std::optional<LinkLayerKind> linkLayerKindFromName(std::string_view name);

class IdealLink;

/// Abstract link-layer contract. See the file comment for the call-site
/// phase discipline.
class LinkLayer {
 public:
  virtual ~LinkLayer() = default;
  LinkLayer(const LinkLayer&) = delete;
  LinkLayer& operator=(const LinkLayer&) = delete;
  /// Move-constructible only so the typed link vectors can grow while
  /// wiring reserves them; never moved once pointers are handed out.
  LinkLayer(LinkLayer&&) = default;

  LinkLayerKind kind() const { return kind_; }
  Cycle latency() const { return latency_; }

  // ---- Hot-path interface (non-virtual; ideal stays fully inline) ------

  // Upstream side.
  inline void sendFlit(Cycle now, const Flit& f, int vc);
  /// Zero-copy credit receive; pair with popCredit(). Non-const: a
  /// retransmission layer consumes piggybacked ACK/NAK control here.
  inline const CreditMsg* peekCredit(Cycle now);
  inline void popCredit();
  /// Upstream endpoint's once-per-cycle hook, after its send phase: the
  /// retransmission replay pump. No-op for ideal links.
  inline void tickUpstream(Cycle now);

  // Downstream side.
  /// Zero-copy flit receive; pair with popFlit(). Non-const: a
  /// retransmission layer filters corrupt/out-of-order arrivals here.
  inline const FlitMsg* peekFlit(Cycle now);
  inline void popFlit();
  inline void sendCredit(Cycle now, int vc);
  /// Downstream endpoint's once-per-cycle hook, after its receive+send
  /// phases: flushes staged ACK/NAK control. No-op for ideal links.
  inline void tickDownstream(Cycle now);

  /// True when nothing is in flight in either direction (quiescence).
  inline bool idle() const;

  // ---- Introspection views (oracle census / credit equations) ----------

  /// Flits charged against an upstream credit but not yet in a downstream
  /// buffer: on an ideal link the forward-pipe occupancy of `vc`; on a
  /// retransmission link the replay-buffer residents the receiver has not
  /// yet accepted (wire copies of those entries are ghosts, counted 0).
  virtual int inFlightFlits(int vc) const = 0;
  /// Credits in flight back upstream for `vc` (ACK/NAK control does not
  /// count).
  virtual int inFlightCredits(int vc) const = 0;
  /// Visits every in-flight flit exactly once (the census set: same
  /// definition as inFlightFlits, all VCs).
  virtual void forEachFlit(
      const std::function<void(const FlitMsg&)>& fn) const = 0;

  // ---- Fault hooks ------------------------------------------------------

  /// Removes every in-flight flit for which `doomed` returns true,
  /// calling `refundCredit(vc)` once per removal; returns the number
  /// removed. Used by the fault injector's reconfiguration flush. An
  /// ideal link deletes the pipe entries outright; a retransmission link
  /// cannot remove replay entries without tearing the go-back-N sequence
  /// space, so it tombstones them instead — the entry stays in the
  /// protocol (pumped, replayed, ACKed) but turns census-invisible and is
  /// consumed silently at the receiver.
  virtual int purgeFlits(const std::function<bool(const FlitMsg&)>& doomed,
                         const std::function<void(int)>& refundCredit) = 0;
  /// While down, the receiver end refuses every arrival at peek time (the
  /// CRC handshake fails against a router in soft reset) and keeps a
  /// go-back staged so the sender replays everything once the router
  /// recovers. Only a retransmission layer can redeliver, so IdealLink
  /// rejects this — on the ideal layer a soft reset purges instead.
  virtual void setReceiverDown(bool down) = 0;
  /// Marks the next `count` flits entering the forward wire as corrupt
  /// (CRC failure at the receiver). Only a retransmission layer can
  /// recover a corrupt flit, so IdealLink rejects this.
  virtual void corruptNext(int count) = 0;
  virtual std::uint64_t corruptedFlits() const { return 0; }
  virtual std::uint64_t retransmittedFlits() const { return 0; }

  // ---- Snapshot ---------------------------------------------------------

  /// Serializes the link's full channel state. IdealLink writes exactly
  /// the pre-refactor bytes (flit pipe then credit pipe); RetxLink writes
  /// a versioned section with wires, replay buffer and sequence state.
  virtual void save(snapshot::Writer& w) const = 0;
  virtual void restore(snapshot::Reader& r) = 0;

 protected:
  LinkLayer(LinkLayerKind kind, Cycle latency)
      : kind_(kind), latency_(latency) {
    RAIR_CHECK(latency >= 1);
  }

  // Slow-path twins of the hot-path methods, reached only when
  // kind() != Ideal. RetxLink overrides all of them.
  virtual void vSendFlit(Cycle now, const Flit& f, int vc) = 0;
  virtual const CreditMsg* vPeekCredit(Cycle now) = 0;
  virtual void vPopCredit() = 0;
  virtual void vTickUpstream(Cycle now) = 0;
  virtual const FlitMsg* vPeekFlit(Cycle now) = 0;
  virtual void vPopFlit() = 0;
  virtual void vSendCredit(Cycle now, int vc) = 0;
  virtual void vTickDownstream(Cycle now) = 0;
  virtual bool vIdle() const = 0;

 private:
  LinkLayerKind kind_;
  Cycle latency_;
};

/// The lossless channel: a forward flit pipe and a reverse credit pipe,
/// exactly the pre-refactor Link. Default link layer everywhere; golden
/// campaign records and snapshot bytes are pinned to it.
class IdealLink final : public LinkLayer {
 public:
  explicit IdealLink(Cycle latency = 1)
      : LinkLayer(LinkLayerKind::Ideal, latency),
        data_(latency),
        credits_(latency) {}

  /// Blocking-style receives for unit tests (the simulator uses the
  /// zero-copy peek/pop pairs).
  std::optional<FlitMsg> recvFlit(Cycle now) { return data_.pop(now); }
  std::optional<CreditMsg> recvCredit(Cycle now) { return credits_.pop(now); }

  /// Read-only pipe views — DelayPipe-level introspection for tests.
  const DelayPipe<FlitMsg>& flitPipe() const { return data_; }
  const DelayPipe<CreditMsg>& creditPipe() const { return credits_; }

  /// Mutable pipe access for snapshot restore and tests.
  DelayPipe<FlitMsg>& flitPipeMut() { return data_; }
  DelayPipe<CreditMsg>& creditPipeMut() { return credits_; }

  int inFlightFlits(int vc) const override;
  int inFlightCredits(int vc) const override;
  void forEachFlit(
      const std::function<void(const FlitMsg&)>& fn) const override;
  int purgeFlits(const std::function<bool(const FlitMsg&)>& doomed,
                 const std::function<void(int)>& refundCredit) override;
  void corruptNext(int count) override;
  void setReceiverDown(bool down) override;
  void save(snapshot::Writer& w) const override;
  void restore(snapshot::Reader& r) override;

 protected:
  // Unreachable: the non-virtual fast path handles Ideal before
  // dispatching. Implemented as hard failures so a future kind that
  // forgets to override them is caught immediately.
  void vSendFlit(Cycle, const Flit&, int) override;
  const CreditMsg* vPeekCredit(Cycle) override;
  void vPopCredit() override;
  void vTickUpstream(Cycle) override;
  const FlitMsg* vPeekFlit(Cycle) override;
  void vPopFlit() override;
  void vSendCredit(Cycle, int) override;
  void vTickDownstream(Cycle) override;
  bool vIdle() const override;

 private:
  friend class LinkLayer;  // the inline fast path below
  DelayPipe<FlitMsg> data_;
  DelayPipe<CreditMsg> credits_;
};

// ---- RetxLink: a CRC/retransmission link layer with deterministic
// go-back-N recovery, the seam that makes transient faults (flit
// corruption) modelable. Implemented in link/retx.cpp.
//
// Model. The upstream endpoint hands the layer at most one flit per cycle
// (sendFlit); the layer appends it to a bounded replay buffer and its
// replay pump (tickUpstream) places at most one flit per cycle onto the
// forward wire, tagged with a per-link sequence number — in the fault-free
// case the freshly appended flit is pumped in the same cycle, so delivery
// timing is identical to IdealLink. The receiver accepts only the
// uncorrupted in-order flit (seq == expectSeq_); a corrupt or gapped
// arrival is dropped at peek time and stages a NAK. Control (cumulative
// ACKs and go-back NAKs) is piggybacked on the reverse credit wire as
// tagged messages and flushed one per cycle by tickDownstream; the
// upstream side applies it transparently while polling credits. A NAK at
// sequence s makes the sender rewind its pump cursor and replay every
// unacknowledged entry from s — classic go-back-N, duplicates are dropped
// silently downstream. Replay entries retire only on cumulative ACK.
//
// Accounting. A flit occupies exactly one census location at all times:
// the replay entries with seq >= expectSeq_ ARE the link's in-flight
// population (charged upstream credit, not yet in a downstream buffer);
// forward-wire copies are ghosts of those entries and entries below
// expectSeq_ have already been delivered (they sit in a downstream buffer
// and are counted there until the ACK retires them). Corruption never
// loses a credit, so the oracle's credit equations close unchanged.
//
// Determinism. Both wires and all layer state are owned by the enclosing
// link object, and the engine-phase discipline at the top of this file
// means each wire is mutated by exactly one endpoint in exactly one phase
// — recovery schedules are byte-identical across shard-thread counts. The
// replay buffer follows the same rule: the receiver reads payloads out of
// it in phase A, so control polled in phase A (peekCredit) only records
// the cumulative ACK/NAK as sender-side scalars, and the pops it implies
// run at the sender's phase-B entry points (sendFlit, tickUpstream). On
// router->router links the buffer is thereby only read in phase A and
// only written in phase B. The NIC->router inject link is written in
// phase A (Nic::tick sends and pumps there), before its own router's
// beginCycle reads it, which is race-free only because both run one after
// the other on the same shard.

/// Retransmission link layer. See the comment above; construction-time
/// knobs are the wire latency and the replay-buffer capacity (callers size
/// it as totalVcs * vcDepth + 2 * latency + slack — the credit loop bounds
/// un-ACKed occupancy, so hitting the cap means broken flow control, and
/// the layer treats overflow as a hard failure rather than backpressure).
class RetxLink final : public LinkLayer {
 public:
  RetxLink(Cycle latency, std::size_t replayCapacity);

  int inFlightFlits(int vc) const override;
  int inFlightCredits(int vc) const override;
  void forEachFlit(
      const std::function<void(const FlitMsg&)>& fn) const override;
  int purgeFlits(const std::function<bool(const FlitMsg&)>& doomed,
                 const std::function<void(int)>& refundCredit) override;
  void corruptNext(int count) override;
  void setReceiverDown(bool down) override;
  std::uint64_t corruptedFlits() const override { return corrupted_; }
  std::uint64_t retransmittedFlits() const override { return retransmitted_; }
  void save(snapshot::Writer& w) const override;
  void restore(snapshot::Reader& r) override;

  /// Replay-buffer occupancy (all entries, including delivered-but-unACKed
  /// ones) — test introspection.
  std::size_t replayOccupancy() const { return replay_.size(); }
  std::uint64_t expectSeq() const { return expectSeq_; }

 protected:
  void vSendFlit(Cycle now, const Flit& f, int vc) override;
  const CreditMsg* vPeekCredit(Cycle now) override;
  void vPopCredit() override;
  void vTickUpstream(Cycle now) override;
  const FlitMsg* vPeekFlit(Cycle now) override;
  void vPopFlit() override;
  void vSendCredit(Cycle now, int vc) override;
  void vTickDownstream(Cycle now) override;
  bool vIdle() const override;

 private:
  friend class LinkLayer;  // the inline no-op checks below

  /// One flit on the forward wire: its link sequence number and whether
  /// its CRC will fail at the receiver. The payload itself is NOT copied
  /// onto the wire — a wire entry the receiver can accept (uncorrupted,
  /// seq == expectSeq_) is guaranteed to still have its replay entry
  /// (entries retire only on a cumulative ACK, which the receiver cannot
  /// have sent before accepting seq), so the receiver reads the FlitMsg
  /// straight out of the replay buffer. Phase-safe: on router->router
  /// links the replay buffer is written in phase B (sender: append, pump,
  /// deferred retirement) and read in phase A (receiver), the same
  /// one-endpoint-per-phase discipline every wire follows; the NIC inject
  /// link writes it in phase A, on the same shard and before its router
  /// reads it (see the file comment).
  struct WireFlit {
    std::uint64_t seq = 0;
    bool corrupt = false;
  };

  enum class RevKind : std::uint8_t { Credit = 0, Ack = 1, Nak = 2 };

  /// One message on the reverse wire: a flow-control credit or a go-back
  /// NAK (seq is cumulative: the receiver's next expected sequence
  /// number). Credits piggyback a cumulative ACK in `seq` for free, so
  /// standalone Ack messages only flush on cycles where a flit was
  /// accepted but no credit was sent.
  struct RevMsg {
    RevKind kind = RevKind::Credit;
    int vc = 0;
    std::uint64_t seq = 0;
  };

  /// A sent-but-unacknowledged flit retained for replay. A doomed entry
  /// was purged by the fault injector (its packet died in a soft reset):
  /// it keeps its place in the sequence space — pumped, replayed and
  /// ACKed like any other — but is census-invisible and consumed
  /// silently at the receiver (no buffer insert, no credit).
  struct ReplayEntry {
    FlitMsg msg;
    std::uint64_t seq = 0;
    bool doomed = false;
  };

  void retireAcked(std::uint64_t seq);
  /// Records one polled control message in the pending scalars (phase A;
  /// touches no replay entry).
  void noteCtl(const RevMsg& m);
  /// Applies the recorded control to the replay buffer (phase B).
  void applyPendingCtl();
  bool ctlPending() const { return ackTo_ != 0 || rewindPending_; }
  void pump(Cycle now);

  std::size_t replayCap_;

  // Wires (forward: upstream pushes, downstream pops; reverse: opposite).
  DelayPipe<WireFlit> fwd_;
  DelayPipe<RevMsg> rev_;

  // Sender state.
  RingQueue<ReplayEntry> replay_;
  std::uint64_t nextSeq_ = 0;   ///< sequence for the next sendFlit
  std::size_t cursor_ = 0;      ///< replay index of the next flit to pump
  std::uint64_t wireHigh_ = 0;  ///< 1 + highest seq ever pumped
  int corruptPending_ = 0;      ///< flits still to corrupt at the pump
  CreditMsg creditScratch_;     ///< backing for peekCredit's return
  // Control polled this cycle, not yet applied (never set at a cycle
  // boundary, so not serialized). Cumulative ACKs compose as a maximum;
  // a go-back NAK resets the pump cursor to the head left by every
  // control message up to the latest NAK, and later ACKs only retire.
  std::uint64_t ackTo_ = 0;     ///< retire every entry with seq below this
  bool rewindPending_ = false;  ///< a NAK arrived: rewind the pump
  std::uint64_t rewindTo_ = 0;  ///< retire below this before the rewind

  // Receiver state.
  std::uint64_t expectSeq_ = 0;  ///< next in-order sequence to accept
  bool ackPending_ = false;      ///< delivery since the last ACK flush
  bool nakPending_ = false;      ///< staged go-back request
  std::uint64_t nakSeq_ = 0;     ///< sequence captured when the NAK staged
  bool nakArmed_ = false;        ///< suppress duplicate NAKs for one gap
  bool receiverDown_ = false;    ///< downstream router in soft reset

  // Lifetime counters (surface through FaultStats).
  std::uint64_t corrupted_ = 0;
  std::uint64_t retransmitted_ = 0;
};

// ---- Hot-path fast paths: ideal links run the pre-refactor pipe ops
// inline; anything else takes one predicted branch into the virtual
// slow path. A retransmission link's peeks and per-cycle hooks first
// check inline whether the virtual call would do anything at all. Each
// check reads only state the same endpoint's virtual call reads first,
// in the same engine phase, and returns exactly what that call would on
// the no-op path:
//  - peekCredit: nothing due on the reverse wire (vPeekCredit's loop
//    would not run; it returns nullptr);
//  - peekFlit: nothing due on the forward wire (likewise);
//  - tickUpstream: no ACK/NAK noted and the pump cursor at the end of the
//    replay buffer (applyPendingCtl and pump are both no-ops);
//  - tickDownstream: no ACK or NAK staged (nothing to flush).
// So the shortcut changes no result and adds no cross-shard access
// (DESIGN.md §5d). RetxLink is the only non-ideal layer; a new kind must
// get its own branch here. ---------------------------------------------

inline void LinkLayer::sendFlit(Cycle now, const Flit& f, int vc) {
  if (kind_ == LinkLayerKind::Ideal)
    static_cast<IdealLink*>(this)->data_.push(now, FlitMsg{f, vc});
  else
    vSendFlit(now, f, vc);
}

inline const CreditMsg* LinkLayer::peekCredit(Cycle now) {
  if (kind_ == LinkLayerKind::Ideal)
    return static_cast<IdealLink*>(this)->credits_.peek(now);
  if (static_cast<RetxLink*>(this)->rev_.peek(now) == nullptr) return nullptr;
  return vPeekCredit(now);
}

inline void LinkLayer::popCredit() {
  if (kind_ == LinkLayerKind::Ideal)
    static_cast<IdealLink*>(this)->credits_.popFront();
  else
    vPopCredit();
}

inline void LinkLayer::tickUpstream(Cycle now) {
  if (kind_ == LinkLayerKind::Ideal) return;
  const auto* retx = static_cast<const RetxLink*>(this);
  if (retx->ctlPending() || retx->cursor_ < retx->replay_.size())
    vTickUpstream(now);
}

inline const FlitMsg* LinkLayer::peekFlit(Cycle now) {
  if (kind_ == LinkLayerKind::Ideal)
    return static_cast<IdealLink*>(this)->data_.peek(now);
  if (static_cast<RetxLink*>(this)->fwd_.peek(now) == nullptr) return nullptr;
  return vPeekFlit(now);
}

inline void LinkLayer::popFlit() {
  if (kind_ == LinkLayerKind::Ideal)
    static_cast<IdealLink*>(this)->data_.popFront();
  else
    vPopFlit();
}

inline void LinkLayer::sendCredit(Cycle now, int vc) {
  if (kind_ == LinkLayerKind::Ideal)
    static_cast<IdealLink*>(this)->credits_.push(now, CreditMsg{vc});
  else
    vSendCredit(now, vc);
}

inline void LinkLayer::tickDownstream(Cycle now) {
  if (kind_ == LinkLayerKind::Ideal) return;
  const auto* retx = static_cast<const RetxLink*>(this);
  if (retx->nakPending_ || retx->ackPending_) vTickDownstream(now);
}

inline bool LinkLayer::idle() const {
  if (kind_ == LinkLayerKind::Ideal) {
    const auto* self = static_cast<const IdealLink*>(this);
    return self->data_.empty() && self->credits_.empty();
  }
  return vIdle();
}

}  // namespace rair
