// RetxLink: a CRC/retransmission link layer with deterministic go-back-N
// recovery, the seam that makes transient faults (flit corruption)
// modelable.
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
// link object, and the engine-phase discipline in link_layer.h means each
// wire is mutated by exactly one endpoint in exactly one phase — recovery
// schedules are byte-identical across shard-thread counts. The replay
// buffer follows the same rule: the receiver reads payloads out of it in
// phase A, so control polled in phase A (peekCredit) only records the
// cumulative ACK/NAK as sender-side scalars, and the pops it implies run
// at the sender's phase-B entry points (sendFlit, tickUpstream). On
// router->router links the buffer is thereby only read in phase A and
// only written in phase B. The NIC->router inject link is written in
// phase A (Nic::tick sends and pumps there), before its own router's
// beginCycle reads it, which is race-free only because both run one after
// the other on the same shard.
#pragma once

#include <cstdint>

#include "link/link_layer.h"

namespace rair {

/// Retransmission link layer. See file comment; construction-time knobs
/// are the wire latency and the replay-buffer capacity (callers size it
/// as totalVcs * vcDepth + 2 * latency + slack — the credit loop bounds
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

}  // namespace rair
