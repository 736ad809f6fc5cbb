// Arbitration-policy interface: the hook through which interference
// reduction techniques plug into the router's arbitration steps.
//
// The router exposes three contended arbitration points (paper Sec. IV.B,
// "multi-stage prioritization"): VA output arbitration, SA input
// arbitration and SA output arbitration. (VA *input* arbitration has no
// inter-flow contention — each input VC chooses among its own candidate
// output VCs — so no policy hook exists there, exactly as the paper
// argues.) At each point the router asks the policy for a priority key per
// candidate; the candidate with the largest key wins, and ties are always
// broken round-robin, which makes the round-robin baseline simply "return
// a constant".
//
// Per-router mutable state (e.g. RAIR's DPA registers) lives in a
// PolicyState owned by the router and updated once per cycle with the
// previous cycle's VC occupancy snapshot — modelling the paper's
// critical-path fix of consuming the priority computed in the previous
// cycle (Sec. IV.E).
#pragma once

#include <memory>

#include "common/types.h"
#include "packet/packet.h"
#include "router/vc.h"

namespace rair::snapshot {
class Writer;
class Reader;
}  // namespace rair::snapshot

namespace rair {

/// Arbitration step at which a priority is being requested.
enum class ArbStage : std::uint8_t {
  VaOut,  ///< VC allocation, output arbitration (per contested output VC)
  SaIn,   ///< switch allocation, input arbitration (per input port)
  SaOut,  ///< switch allocation, output arbitration (per output port)
};

/// One competitor in an arbitration step.
struct ArbCandidate {
  /// Front flit of the competing input VC. The router fills `native` from
  /// its cached per-VC class, not from this flit; policies that rank by
  /// flit fields (age, STC batch and rank) load them through this pointer.
  const Flit* flit = nullptr;
  AppId routerApp = kNoApp;    ///< application tag of this router's node
  /// Class of the contested output VC (VaOut) or of the output VC already
  /// allocated to the competitor (SaIn / SaOut).
  VcClass outVcClass = VcClass::Adaptive;
  bool native = false;  ///< flit->app matches the router tag
  Cycle now = 0;
};

/// Per-router mutable policy state. Policies that need none return nullptr
/// from makeState().
class PolicyState {
 public:
  virtual ~PolicyState() = default;

  /// Snapshot hooks: serialize/deserialize the mutable state (not the
  /// configuration, which the owning router reconstructs). Stateless
  /// subclasses inherit the no-ops.
  virtual void save(snapshot::Writer& w) const { (void)w; }
  virtual void restore(snapshot::Reader& r) { (void)r; }
};

/// VC occupancy snapshot a router hands to the policy once per cycle.
/// Counts are over *all* input ports of the router (paper Sec. IV.C: using
/// router-wide counts tolerates non-uniform VC status across ports).
struct RouterOccupancy {
  int nativeOccupiedVcs = 0;   ///< OVC_n
  int foreignOccupiedVcs = 0;  ///< OVC_f
};

/// Interference-reduction policy. One instance is shared by all routers of
/// a simulation (it must be stateless apart from PolicyState objects).
class ArbiterPolicy {
 public:
  virtual ~ArbiterPolicy() = default;

  virtual const char* name() const = 0;

  /// Creates the per-router state; called once per router at construction.
  virtual std::unique_ptr<PolicyState> makeState() const { return nullptr; }

  /// Called once per router per cycle, before any arbitration, with the
  /// occupancy measured at the end of the previous cycle.
  virtual void updateState(PolicyState* /*state*/,
                           const RouterOccupancy& /*occ*/) const {}

  /// Priority key for a candidate; HIGHER wins, ties break round-robin.
  /// Must be a pure function of its arguments (and of what `cand.flit`
  /// points at): no side effects, no hidden state. The router relies on
  /// this to skip the call when a grant is uncontested — a lone VA_out
  /// request, a lone eligible VC at SA_in, a lone SA_in winner at SA_out
  /// — and to compute a requester's key late, once a rival appears.
  virtual std::uint64_t priority(ArbStage stage, const ArbCandidate& cand,
                                 const PolicyState* state) const = 0;
};

/// Round-robin baseline (the paper's RO_RR): every candidate is equal, so
/// the arbiter's round-robin tie-break decides. Region- and
/// application-oblivious.
class RoundRobinPolicy final : public ArbiterPolicy {
 public:
  const char* name() const override { return "RO_RR"; }
  std::uint64_t priority(ArbStage, const ArbCandidate&,
                         const PolicyState*) const override {
    return 0;
  }
};

/// Age-based / oldest-first baseline [Abts & Weisser, SC'07]: older packets
/// (earlier creation cycle) win. Region- and application-oblivious.
class AgeBasedPolicy final : public ArbiterPolicy {
 public:
  const char* name() const override { return "RO_Age"; }
  std::uint64_t priority(ArbStage, const ArbCandidate& cand,
                         const PolicyState*) const override {
    return ~cand.flit->createCycle;  // older -> larger key
  }
};

}  // namespace rair
