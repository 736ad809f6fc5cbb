#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "campaign/builtin.h"
#include "campaign/runner.h"
#include "core/dpa.h"
#include "fault/plan.h"
#include "fault/random_plan.h"
#include "routing/tables.h"
#include "scenarios/paper_scenarios.h"
#include "sim/saturation.h"
#include "sim/scenario.h"
#include "snapshot/buffer.h"

namespace perfbench {
namespace {

using namespace rair;
using campaign::CampaignSpec;
using campaign::CellRecord;
using campaign::JsonValue;
namespace fs = std::filesystem;

// ---- small statistics helpers ---------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t dirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec))
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  return total;
}

/// A fresh, empty directory.
std::string freshDir(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::vector<std::uint8_t> saveState(const Simulator& sim) {
  snapshot::Writer w;
  sim.save(w);
  return w.payload();
}

/// End-to-end timings of one repetition.
struct RepTimes {
  double wallS;
  double setupS;
  double cyclesPerS;
  double hopsPerS;
};

/// Runs repetition i = 0, 1, ... until the requested time is used up, at
/// least three times so that no single slow repetition (another tenant's
/// burst on a shared host) sets a median, and reports the medians as the
/// end-to-end metrics.
template <typename RunRep>
void repeatForSeconds(const Options& opts, Outcome& out, RunRep runRep) {
  std::vector<double> wall, setup, cps, hps;
  const Clock::time_point begin = Clock::now();
  while (wall.size() < 3 ||
         seconds(begin, Clock::now()) + 0.5 * wall.back() < opts.seconds) {
    const RepTimes t = runRep(static_cast<int>(wall.size()));
    wall.push_back(t.wallS);
    setup.push_back(t.setupS);
    cps.push_back(t.cyclesPerS);
    hps.push_back(t.hopsPerS);
  }
  out.reps = static_cast<int>(wall.size());
  out.metric("wall_s", "s", median(wall));
  out.metric("setup_s", "s", median(setup));
  out.metric("sim_cycles_per_s", "1/s", median(cps));
  out.metric("flit_hops_per_s", "1/s", median(hps));
}

// ---- per-cycle probe ------------------------------------------------------

/// Observer timing the body of every stepCycle() (begin-of-cycle to
/// end-of-cycle notification) in fixed chunks, and counting router-cycles
/// that are not quiescent(). The quiescence scan runs after the cycle's
/// end timestamp, so it stays out of the chunk times.
class CycleProbe final : public SimObserver {
 public:
  CycleProbe(const Network& net, Cycle chunkCycles, Tracer& tracer,
             std::uint64_t parent)
      : net_(net), chunk_(chunkCycles), tracer_(tracer), parent_(parent) {}

  void onCycleBegin(Cycle) override {
    cycleStart_ = Clock::now();
    if (inChunk_ == 0) chunkStart_ = cycleStart_;
  }
  void onCycleEnd(Cycle) override {
    chunkBody_ += Clock::now() - cycleStart_;
    if (++inChunk_ == chunk_) {
      // The span starts at the chunk's first cycle and lasts the summed
      // stepCycle time of its cycles.
      tracer_.record(0, "stepCycle.chunk", "sim", chunkStart_,
                     chunkStart_ + chunkBody_, parent_);
      inChunk_ = 0;
      chunkBody_ = Clock::duration::zero();
    }
    const NodeId n = net_.mesh().numNodes();
    for (NodeId i = 0; i < n; ++i)
      if (!net_.router(i).quiescent()) ++busy_;
    routerCycles_ += static_cast<std::uint64_t>(n);
  }

  std::uint64_t busy() const { return busy_; }
  std::uint64_t routerCycles() const { return routerCycles_; }

 private:
  const Network& net_;
  const Cycle chunk_;
  Tracer& tracer_;
  const std::uint64_t parent_;
  Cycle inChunk_ = 0;
  Clock::time_point cycleStart_;
  Clock::time_point chunkStart_;
  Clock::duration chunkBody_ = Clock::duration::zero();
  std::uint64_t busy_ = 0;
  std::uint64_t routerCycles_ = 0;
};

struct RouterTotals {
  std::uint64_t vaGrants = 0;
  std::uint64_t saGrants = 0;
  std::uint64_t dpaFlips = 0;
};

RouterTotals routerTotals(const Network& net) {
  RouterTotals t;
  for (NodeId n = 0; n < net.mesh().numNodes(); ++n) {
    const Router& r = net.router(n);
    t.vaGrants += r.counters().vaGrantsNative + r.counters().vaGrantsForeign;
    t.saGrants += r.counters().saGrantsNative + r.counters().saGrantsForeign;
    if (const auto* dpa = dynamic_cast<const DpaState*>(r.policyState()))
      t.dpaFlips += dpa->flips();
  }
  return t;
}

// ---- campaigns --------------------------------------------------------------

constexpr Cycle kCampaignChunkCycles = 100;

/// RA_RAIR's App 0 APL reduction over RO_RR at p = 100% (paper Fig. 9).
constexpr double kPaperFig09ReductionPct = 18.9;

struct CampaignConfig {
  std::string name;  ///< built-in campaign
  LinkLayerKind link = LinkLayerKind::Ideal;
  double faultDensity = 0.0;
  /// Fresh warm-state cache and checkpoint directories, as with
  /// `rair_campaign --warm-cache DIR --checkpoint-dir DIR`.
  bool snapshots = false;
};

/// What the benchmark observes of one cell from outside the runner.
struct CellObs {
  std::uint64_t flitHops = 0;
  std::optional<metrics::MetricsSummary> summary;
};

struct CampaignRep {
  double wallS = 0.0;
  double setupS = 0.0;
  double cellsS = 0.0;
  std::map<std::string, double> values;  ///< calibration results by key
  SimConfig sim;                         ///< the cells' windows and network
  double faultDensity = 0.0;
  CampaignSpec spec;
  std::vector<CellRecord> records;
  std::vector<CellObs> cells;
  std::uint64_t cacheBytes = 0;

  std::uint64_t cycles() const {
    std::uint64_t c = 0;
    for (const CellRecord& r : records) c += r.cyclesRun;
    return c;
  }
  std::uint64_t flitHops() const {
    std::uint64_t h = 0;
    for (const CellObs& c : cells) h += c.flitHops;
    return h;
  }
};

/// One timed campaign: build (calibration included), then run every cell
/// on `opts.threads` workers into a fresh results file. Spans go to
/// `tracer` when it is enabled.
CampaignRep runCampaignRep(const CampaignConfig& cfg, const Options& opts,
                           Tracer& tracer, const std::string& dir) {
  freshDir(dir);
  const std::string warmDir = dir + "/warm";
  const std::string ckptDir = dir + "/ckpt";

  CampaignRep rep;
  std::map<std::string, double> values;
  const std::uint64_t root = tracer.newId();
  const Clock::time_point t0 = Clock::now();

  campaign::BuildContext ctx = campaign::defaultBuildContext(/*fast=*/true);
  ctx.campaignSeed = opts.seed;
  ctx.sim.net.linkLayer = cfg.link;
  ctx.faultDensity = cfg.faultDensity;
  if (cfg.snapshots) ctx.sat.warmCacheDir = warmDir;
  const std::uint64_t buildSpan = tracer.newId();
  // Calibration runs inside the memo hook's compute callback: timing it
  // there measures exactly the calibration work, not the cache lookups.
  ctx.value = [memo = ctx.value, &values, &tracer, buildSpan](
                  const std::string& key, const std::function<double()>& fn) {
    const double v = memo(key, [&] {
      const Clock::time_point s = Clock::now();
      const double computed = fn();
      JsonValue args = JsonValue::Object{};
      args.set("key", JsonValue(key));
      args.set("value", JsonValue(computed));
      tracer.record(0, "calibrate", "saturation", s, Clock::now(), buildSpan,
                    std::move(args));
      return computed;
    });
    values[key] = v;
    return v;
  };
  rep.spec = campaign::buildBuiltinCampaign(cfg.name, ctx);
  const Clock::time_point t1 = Clock::now();
  tracer.record(buildSpan, "buildBuiltinCampaign", "campaign", t0, t1, root);

  // Wrap every cell to observe its flit hops and router counters, and to
  // time it. Each wrapper writes only its own slot.
  const std::uint64_t runSpan = tracer.newId();
  rep.cells.resize(rep.spec.cells.size());
  for (std::size_t i = 0; i < rep.spec.cells.size(); ++i) {
    campaign::CampaignCell& cell = rep.spec.cells[i];
    cell.run = [inner = std::move(cell.run), slot = &rep.cells[i], &tracer,
                runSpan, key = cell.key](const campaign::CellContext& cc) {
      const Clock::time_point s = Clock::now();
      ScenarioResult r = inner(cc);
      const Clock::time_point e = Clock::now();
      slot->flitHops = r.run.flitHops;
      slot->summary = r.metrics;
      JsonValue args = JsonValue::Object{};
      args.set("key", JsonValue(key));
      args.set("cycles", JsonValue(static_cast<std::uint64_t>(
                             r.run.cyclesRun)));
      args.set("flit_hops", JsonValue(r.run.flitHops));
      tracer.record(0, "cell", "campaign", s, e, runSpan, std::move(args));
      return r;
    };
  }

  campaign::RunnerOptions ro;
  ro.jobs = opts.threads;
  ro.outPath = dir + "/results.jsonl";
  if (cfg.snapshots) {
    ro.warmCacheDir = warmDir;
    ro.checkpointDir = ckptDir;
  }
  const campaign::CampaignSummary summary = campaign::runCampaign(rep.spec,
                                                                  ro);
  const Clock::time_point t2 = Clock::now();
  tracer.record(runSpan, "runCampaign", "campaign", t1, t2, root);
  tracer.record(root, "workload.rep", "workload", t0, t2);

  rep.wallS = seconds(t0, t2);
  rep.setupS = seconds(t0, t1);
  rep.cellsS = seconds(t1, t2);
  rep.records = summary.records;
  rep.values = std::move(values);
  rep.sim = ctx.sim;
  rep.faultDensity = ctx.faultDensity;
  if (cfg.snapshots) rep.cacheBytes = dirBytes(warmDir);
  return rep;
}

std::vector<std::string> canonical(const std::vector<CellRecord>& records) {
  std::vector<std::string> out;
  for (const CellRecord& r : records) out.push_back(r.toJsonLine(false));
  return out;
}

/// Output checks of one repetition: every cell ran (none resumed from a
/// stale file) and drained, and the records equal the reference
/// repetition's byte for byte.
void checkRep(const CampaignRep& rep, const std::vector<std::string>& ref,
              const std::string& what, Outcome& out) {
  out.attempted += rep.spec.cells.size();
  if (rep.records.size() < rep.spec.cells.size()) {
    out.fail(what + ": " + std::to_string(rep.records.size()) + " of " +
                 std::to_string(rep.spec.cells.size()) + " records",
             rep.spec.cells.size() - rep.records.size());
  }
  for (std::size_t i = 0; i < rep.records.size(); ++i) {
    const CellRecord& r = rep.records[i];
    if (!r.drained() || r.fromCache) {
      out.fail(what + ": cell " + r.key + " " +
               (r.fromCache ? "was resumed from a stale results file"
                            : "did not drain (" +
                                  std::string(terminationName(
                                      r.termination)) +
                                  ")"));
    } else if (!ref.empty() &&
               (i >= ref.size() || ref[i] != r.toJsonLine(false))) {
      out.fail(what + ": cell " + r.key +
               " differs from the first repetition");
    }
  }
}

void campaignUntraced(const CampaignConfig& cfg, const Options& opts,
                      Tracer& tracer, Outcome& out) {
  repeatForSeconds(opts, out, [&](int i) {
    const CampaignRep rep = runCampaignRep(
        cfg, opts, tracer, opts.workDir + "/rep" + std::to_string(i));
    if (i == 0) out.records = canonical(rep.records);
    checkRep(rep, out.records, "repetition " + std::to_string(i), out);
    return RepTimes{rep.wallS, rep.setupS,
                    static_cast<double>(rep.cycles()) / rep.cellsS,
                    static_cast<double>(rep.flitHops()) / rep.cellsS};
  });
}

const SchemeSpec* schemeByLabel(const std::string& label) {
  static const std::vector<SchemeSpec> schemes = {
      schemeRoRr(), schemeRairVaOnly(), schemeRaRair()};
  for (const SchemeSpec& s : schemes)
    if (s.label == label) return &s;
  return nullptr;
}

/// Per-cycle observations of the fault-free cells, which the benchmark
/// re-runs standalone from public pieces (the runner gives no access to a
/// cell's simulator). Each replay must reproduce its campaign record byte
/// for byte, which proves it ran the same simulation.
struct ReplayTotals {
  std::uint64_t busy = 0;
  std::uint64_t routerCycles = 0;
  std::vector<double> saveS, restoreS;
  std::size_t snapshotBytes = 0;
};

/// Rebuilds the spec of a fault-free two-app cell (Figs. 9/10 and the
/// faults campaign's `none` cells); nullopt for any other cell.
std::optional<ScenarioSpec> replaySpec(const CampaignRep& rep,
                                       std::size_t idx, const Mesh& mesh,
                                       const RegionMap& regions) {
  const CellRecord& r = rep.records[idx];
  const std::string* schemeLabel = r.label("scheme");
  const SchemeSpec* scheme = schemeLabel ? schemeByLabel(*schemeLabel)
                                         : nullptr;
  const auto sat = rep.values.find("halves/halfSat");
  if (scheme == nullptr || sat == rep.values.end()) return std::nullopt;
  double p = 0.0;
  if (const std::string* fault = r.label("fault")) {
    if (*fault != "none") return std::nullopt;
    p = 0.5;  // the faults campaign's fixed two-app workload
  } else if (const std::string* pl = r.label("p")) {
    p = std::stoi(*pl) / 100.0;
  } else {
    return std::nullopt;
  }
  ScenarioSpec spec(mesh, regions);
  spec.withConfig(rep.sim)
      .withScheme(*scheme)
      .withApps(scenarios::twoAppInterRegion(
          p, scenarios::kLowLoadFraction * sat->second,
          scenarios::kHighLoadFraction * sat->second))
      .withSeed(campaign::cellSeed(rep.spec.campaignSeed, idx));
  return spec;
}

/// Replays every rebuildable cell on `threads` workers. With
/// `snapshotProbe`, each replay saves its simulator at the end of warm-up,
/// restores the bytes into a second simulator and finishes the run there.
ReplayTotals replayCells(const CampaignRep& rep, int threads,
                         bool snapshotProbe, Tracer& tracer, Outcome& out) {
  const Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < rep.records.size(); ++i)
    if (replaySpec(rep, i, mesh, regions)) todo.push_back(i);

  std::mutex mu;
  ReplayTotals totals;
  std::vector<std::string> mismatched;
  std::atomic<std::size_t> next{0};
  const std::uint64_t parent = tracer.newId();
  const Clock::time_point start = Clock::now();
  auto worker = [&] {
    for (std::size_t k = next.fetch_add(1); k < todo.size();
         k = next.fetch_add(1)) {
      const std::size_t idx = todo[k];
      const ScenarioSpec spec = *replaySpec(rep, idx, mesh, regions);
      AssembledScenario as = assembleScenario(spec);
      AssembledScenario restored;
      Simulator* sim = as.sim.get();
      CycleProbe warmProbe(sim->network(), kCampaignChunkCycles, tracer,
                           parent);
      double saveS = 0.0, restoreS = 0.0;
      std::size_t bytes = 0;
      if (snapshotProbe) {
        sim->observers().attach(&warmProbe);
        sim->begin();
        while (sim->now() < spec.config.warmupCycles) sim->stepCycle();
        sim->observers().detach(&warmProbe);
        const Clock::time_point s0 = Clock::now();
        const std::vector<std::uint8_t> state = saveState(*sim);
        const Clock::time_point s1 = Clock::now();
        restored = assembleScenario(spec);
        const Clock::time_point r0 = Clock::now();
        snapshot::Reader reader(state);
        restored.sim->restore(reader);
        const Clock::time_point r1 = Clock::now();
        tracer.record(0, "Simulator::save", "snapshot", s0, s1, parent);
        tracer.record(0, "Simulator::restore", "snapshot", r0, r1, parent);
        saveS = seconds(s0, s1);
        restoreS = seconds(r0, r1);
        bytes = state.size();
        sim = restored.sim.get();
      }
      CycleProbe probe(sim->network(), kCampaignChunkCycles, tracer, parent);
      sim->observers().attach(&probe);
      ScenarioResult res;
      res.run = sim->run();
      sim->observers().detach(&probe);
      res.meanApl = res.run.stats.overallApl();
      for (AppId a = 0; a < as.numApps; ++a)
        res.appApl.push_back(res.run.stats.appApl(a));
      const CellRecord replayed = campaign::makeCellRecord(
          rep.spec, rep.spec.cells[idx], spec.seed, res, 0.0);

      const std::lock_guard<std::mutex> lock(mu);
      if (replayed.toJsonLine(false) != rep.records[idx].toJsonLine(false))
        mismatched.push_back(rep.records[idx].key);
      totals.busy += probe.busy() + warmProbe.busy();
      totals.routerCycles += probe.routerCycles() + warmProbe.routerCycles();
      if (snapshotProbe) {
        totals.saveS.push_back(saveS);
        totals.restoreS.push_back(restoreS);
        totals.snapshotBytes = std::max(totals.snapshotBytes, bytes);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  tracer.record(parent, "replay", "sim", start, Clock::now());

  out.attempted += todo.size();
  for (const std::string& key : mismatched)
    out.fail("replay of cell " + key + " does not reproduce its record");
  return totals;
}

/// Topology events of the faults campaign's plans, replayed through a
/// standalone RoutingTables exactly as the fault injector applies them:
/// each cycle's resets/recovers mark channels, then one commit() repairs
/// the tables. Returns the commit times in seconds.
std::vector<double> replayRoutingCommits(const CampaignRep& rep,
                                         Tracer& tracer, Outcome& out) {
  const SimConfig& cfg = rep.sim;
  const Mesh mesh(8, 8);
  // The plans, rebuilt the way the built-in faults campaign builds them.
  // The derivation is checked below against each cell's applied-event
  // counts, so a change to the campaign's plans shows as a failure here.
  std::vector<std::pair<std::string, fault::FaultPlan>> plans;
  {
    const Cycle t0 = cfg.warmupCycles + cfg.measureCycles / 4;
    fault::FaultPlan reset;
    reset.softReset(t0, mesh.nodeAt({3, 4}), cfg.measureCycles / 4);
    for (const char* scheme : {"RO_RR", "RA_RAIR"})
      plans.emplace_back(std::string(scheme) + "/reset", reset);
    const double mults[] = {0.5, 1.0, 2.0};
    for (std::size_t mi = 0; mi < 3; ++mi) {
      const double rate = rep.faultDensity * mults[mi];
      fault::RandomPlanOptions po;
      po.meshW = mesh.width();
      po.meshH = mesh.height();
      po.numClasses = cfg.net.numClasses;
      po.vcsPerClass = cfg.net.vcsPerClass;
      po.windowBegin = cfg.warmupCycles + 1;
      po.windowEnd = cfg.warmupCycles + cfg.measureCycles;
      po.retxLayer = true;
      po.mtbf = std::max<Cycle>(1, static_cast<Cycle>(1000.0 / rate + 0.5));
      po.allowPermanentOutage = false;
      char name[32];
      std::snprintf(name, sizeof name, "density%gx", mults[mi]);
      for (std::size_t si = 0; si < 2; ++si) {
        plans.emplace_back(
            std::string(si == 0 ? "RO_RR/" : "RA_RAIR/") + name,
            fault::generateRandomPlan(
                campaign::cellSeed(rep.spec.campaignSeed,
                                   0xD0'000 + mi * 8 + si),
                po));
      }
    }
  }

  std::map<std::string, const CellRecord*> byKey;
  for (const CellRecord& r : rep.records) byKey[r.key] = &r;
  for (const auto& [key, plan] : plans) {
    const auto it = byKey.find(key);
    std::uint64_t events = 0, resets = 0;
    if (it != byKey.end()) {
      for (const fault::FaultEvent& e : plan.events()) {
        if (e.at >= it->second->cyclesRun) continue;  // never applied
        ++events;
        if (e.kind == fault::FaultKind::Reset) ++resets;
      }
    }
    ++out.attempted;
    if (it == byKey.end() || !it->second->fault ||
        it->second->fault->eventsApplied != events ||
        it->second->fault->softResets != resets)
      out.fail("routing replay: plan of " + key +
               " does not match the campaign's applied events");
  }

  // Enough passes for a stable median; the tables are rebuilt per pass.
  constexpr int kPasses = 20;
  std::vector<double> commits;
  const std::uint64_t parent = tracer.newId();
  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const auto& entry : plans) {
      const fault::FaultPlan& plan = entry.second;
      RoutingTables tables(mesh);
      std::vector<char> inReset(static_cast<std::size_t>(mesh.numNodes()));
      const auto& ev = plan.events();
      for (std::size_t i = 0; i < ev.size();) {
        const Cycle at = ev[i].at;
        bool changed = false;
        for (; i < ev.size() && ev[i].at == at; ++i) {
          const fault::FaultEvent& e = ev[i];
          const auto node = static_cast<std::size_t>(e.node);
          if (e.kind == fault::FaultKind::Reset) {
            inReset[node] = 1;
          } else if (e.kind == fault::FaultKind::Recover && inReset[node]) {
            inReset[node] = 0;
          } else {
            continue;
          }
          for (int d = static_cast<int>(Dir::North); d < kNumPorts; ++d) {
            const auto dir = static_cast<Dir>(d);
            const auto nb = mesh.neighbor(e.node, dir);
            if (!nb) continue;
            // A channel to a neighbor still in reset stays dead.
            const bool dead =
                inReset[node] || inReset[static_cast<std::size_t>(*nb)];
            tables.setLinkDead(e.node, dir, dead);
          }
          changed = true;
        }
        if (!changed) continue;
        const Clock::time_point c0 = Clock::now();
        tables.commit();
        const Clock::time_point c1 = Clock::now();
        tracer.record(0, "RoutingTables::commit", "routing", c0, c1, parent);
        commits.push_back(seconds(c0, c1));
      }
    }
  }
  tracer.record(parent, "routing.replay", "routing", start, Clock::now());
  return commits;
}

/// The traced run of a campaign workload: one untraced repetition, one
/// traced repetition (their records must be identical), then the
/// standalone probes. Every per-layer metric comes from the traced
/// repetition's spans and records, or from the probes.
void campaignTraced(const CampaignConfig& cfg, const Options& opts,
                    Tracer& tracer, Outcome& out) {
  Tracer off(false);
  const CampaignRep plain =
      runCampaignRep(cfg, opts, off, opts.workDir + "/untraced");
  out.records = canonical(plain.records);
  checkRep(plain, {}, "untraced repetition", out);
  const CampaignRep rep =
      runCampaignRep(cfg, opts, tracer, opts.workDir + "/traced");
  checkRep(rep, out.records, "traced repetition", out);
  out.reps = 2;

  const bool faults = cfg.name == "faults";
  const ReplayTotals replay =
      replayCells(rep, opts.threads, /*snapshotProbe=*/faults, tracer, out);
  const std::vector<double> commits =
      faults ? replayRoutingCommits(rep, tracer, out) : std::vector<double>{};

  const double calibrateS = sum(tracer.durations("calibrate"));
  const double cellsS = sum(tracer.durations("runCampaign"));
  const std::vector<double> cellS = tracer.durations("cell");
  const std::vector<double> chunkS = tracer.durations("stepCycle.chunk");

  out.metric("trace.overhead", "ratio", ratio(rep.wallS, plain.wallS));
  out.metric("saturation.calibrate_s", "s", calibrateS);
  out.metric("saturation.share", "ratio", ratio(calibrateS, rep.wallS));
  out.metric("campaign.cells_s", "s", cellsS);
  out.metric("campaign.cell_s_p50", "s", median(cellS));
  out.metric("campaign.cell_s_max", "s", quantile(cellS, 1.0));
  out.metric("campaign.worker_util", "ratio",
             ratio(sum(cellS), opts.threads * cellsS));

  RouterTotals rt;
  for (const CellObs& c : rep.cells) {
    if (!c.summary) continue;
    rt.vaGrants += c.summary->vaGrantsNative + c.summary->vaGrantsForeign;
    rt.saGrants += c.summary->saGrantsNative + c.summary->saGrantsForeign;
    rt.dpaFlips += c.summary->dpaFlips;
  }
  const auto hops = static_cast<double>(rep.flitHops());
  out.metric("sim.cycles", "count", static_cast<double>(rep.cycles()));
  out.metric("sim.flit_hops", "count", hops);
  out.metric("sim.ns_per_flit_hop", "ns", ratio(sum(cellS) * 1e9, hops));
  out.metric("sim.chunk_ms_p50", "ms", median(chunkS) * 1e3);
  out.metric("sim.chunk_ms_p99", "ms", quantile(chunkS, 0.99) * 1e3);
  out.metric("sim.backlog_growth", "ratio", 0.0, false);
  out.metric("router.busy_frac", "ratio",
             ratio(static_cast<double>(replay.busy),
                   static_cast<double>(replay.routerCycles)));
  out.metric("router.va_grants", "count", static_cast<double>(rt.vaGrants));
  out.metric("router.sa_grants", "count", static_cast<double>(rt.saGrants));
  out.metric("core.dpa_flips", "count", static_cast<double>(rt.dpaFlips));
  out.metric("shard.t1_vs_t0", "ratio", 0.0, false);
  out.metric("shard.speedup_tn", "ratio", 0.0, false);
  out.metric("snapshot.save_ms", "ms", median(replay.saveS) * 1e3, faults);
  out.metric("snapshot.restore_ms", "ms", median(replay.restoreS) * 1e3,
             faults);
  out.metric("snapshot.bytes", "bytes",
             static_cast<double>(replay.snapshotBytes), faults);
  out.metric("snapshot.cache_bytes", "bytes",
             static_cast<double>(rep.cacheBytes), faults);

  fault::FaultStats fs;
  std::map<std::string, double> noneWall;
  for (const CellRecord& r : rep.records) {
    if (const std::string* f = r.label("fault"); f && *f == "none")
      noneWall[*r.label("scheme")] = r.wallMs;
    if (!r.fault) continue;
    fs.eventsApplied += r.fault->eventsApplied;
    fs.reroutes += r.fault->reroutes;
    fs.droppedPackets += r.fault->droppedPackets;
    fs.retransmittedFlits += r.fault->retransmittedFlits;
  }
  std::vector<double> slowdown;
  for (const CellRecord& r : rep.records) {
    const std::string* f = r.label("fault");
    if (f == nullptr || *f == "none") continue;
    const auto base = noneWall.find(*r.label("scheme"));
    if (base != noneWall.end()) slowdown.push_back(r.wallMs / base->second);
  }
  out.metric("fault.events", "count",
             static_cast<double>(fs.eventsApplied), faults);
  out.metric("fault.reroutes", "count", static_cast<double>(fs.reroutes),
             faults);
  out.metric("fault.dropped_packets", "count",
             static_cast<double>(fs.droppedPackets), faults);
  out.metric("fault.slowdown", "ratio", median(slowdown), faults);
  const bool retx = cfg.link == LinkLayerKind::Retx;
  out.metric("link.retx_flits", "count",
             static_cast<double>(fs.retransmittedFlits), retx);
  out.metric("link.retx_ratio", "ratio",
             ratio(static_cast<double>(fs.retransmittedFlits), hops), retx);
  out.metric("routing.commit_us_p50", "us", median(commits) * 1e6, faults);
  out.metric("routing.commit_us_max", "us", quantile(commits, 1.0) * 1e6,
             faults);

  // Model accuracy against the paper's headline number (fig09 only).
  double errPp = 0.0;
  bool fig09 = false;
  if (cfg.name == "fig09") {
    const campaign::CellLookup cells = [&] {
      campaign::CellLookup l;
      for (const CellRecord& r : rep.records) l.insert(r);
      return l;
    }();
    const CellRecord* base = cells.find("RO_RR/p100");
    const CellRecord* rair = cells.find("RA_RAIR/p100");
    if (base && rair) {
      fig09 = true;
      errPp = std::fabs(rair->reductionVs(*base, 0) * 100.0 -
                        kPaperFig09ReductionPct);
    }
  }
  out.metric("model_err_pp", "pp", errPp, fig09);
  out.metric("peak_rss_mb", "MB", peakRssMb());
}

// ---- mesh16_knee ------------------------------------------------------------

/// mesh16_knee's per-app rate (flits/cycle/node): 85% of the workload's
/// saturation, as printed by `perfbench --calibrate-knee` (README.md).
/// Fixed here so calibration is not part of the measured workload.
constexpr double kKneeRate = 0.25797847306711708;
constexpr double kKneeFraction = scenarios::kHighLoadFraction;
constexpr Cycle kKneeWarmup = 4'000;
constexpr Cycle kKneeTimed = 16'000;
constexpr Cycle kKneeChunk = 16;
constexpr Cycle kPivotCycles = 4'000;
/// In-flight packets may end the timed phase at most this many times
/// their number at its start; more means the offered load is past the
/// knee and source queues are growing.
constexpr double kMaxBacklogGrowth = 1.25;

/// Four quadrant apps; each sends 80% of its traffic uniformly inside its
/// quadrant and 20% uniformly to the rest of the chip, so every router
/// carries native and foreign traffic.
std::vector<AppTrafficSpec> kneeApps(double rate) {
  std::vector<AppTrafficSpec> apps(4);
  for (int a = 0; a < 4; ++a) {
    AppTrafficSpec& s = apps[static_cast<std::size_t>(a)];
    s.app = static_cast<AppId>(a);
    s.injectionRate = rate;
    s.intraFraction = 0.8;
    s.interFraction = 0.2;
  }
  return apps;
}

struct KneeFixture {
  Mesh mesh{16, 16};
  RegionMap regions = RegionMap::quadrants(mesh);

  ScenarioSpec spec(const Options& opts, int threads) const {
    SimConfig cfg = ScenarioSpec::windowPreset(/*fast=*/true);
    cfg.warmupCycles = kKneeWarmup;
    cfg.measureCycles = 1'000'000'000;  // sources never stop
    ScenarioSpec s(mesh, regions);
    s.withConfig(cfg)
        .withScheme(schemeRaRair(RoutingKind::Dbar))
        .withApps(kneeApps(kKneeRate * opts.kneeScale))
        .withSeed(opts.seed)
        .withThreads(threads);
    return s;
  }
};

struct KneeRep {
  double wallS = 0.0;
  double setupS = 0.0;
  double timedS = 0.0;
  std::uint64_t hops = 0;
  std::size_t inFlightStart = 0;
  std::size_t inFlightEnd = 0;
  std::string record;
  RouterTotals totals;       ///< whole run (the record)
  RouterTotals timedTotals;  ///< timed phase only (per-layer metrics)
  std::uint64_t busy = 0;
  std::uint64_t routerCycles = 0;
};

KneeRep runKneeRep(const KneeFixture& fx, const Options& opts,
                   Tracer& tracer) {
  KneeRep rep;
  const std::uint64_t root = tracer.newId();
  const Clock::time_point t0 = Clock::now();
  const ScenarioSpec spec = fx.spec(opts, opts.threads);
  AssembledScenario as = assembleScenario(spec);
  Simulator& sim = *as.sim;
  sim.begin();
  while (sim.now() < kKneeWarmup) sim.stepCycle();
  const Clock::time_point t1 = Clock::now();
  tracer.record(0, "assemble+warmup", "sim", t0, t1, root);

  rep.inFlightStart = sim.inFlight();
  const std::uint64_t hops0 = sim.network().totalFlitsTraversed();
  const RouterTotals atStart = routerTotals(sim.network());
  std::optional<CycleProbe> probe;
  if (tracer.enabled()) {
    probe.emplace(sim.network(), kKneeChunk, tracer, root);
    sim.observers().attach(&*probe);
  }
  for (Cycle c = 0; c < kKneeTimed; ++c) sim.stepCycle();
  const Clock::time_point t2 = Clock::now();
  if (probe) {
    sim.observers().detach(&*probe);
    rep.busy = probe->busy();
    rep.routerCycles = probe->routerCycles();
  }
  tracer.record(0, "stepCycle.timed", "sim", t1, t2, root);
  tracer.record(root, "workload.rep", "workload", t0, t2);

  rep.wallS = seconds(t0, t2);
  rep.setupS = seconds(t0, t1);
  rep.timedS = seconds(t1, t2);
  rep.hops = sim.network().totalFlitsTraversed() - hops0;
  rep.inFlightEnd = sim.inFlight();
  rep.totals = routerTotals(sim.network());
  rep.timedTotals = {rep.totals.vaGrants - atStart.vaGrants,
                     rep.totals.saGrants - atStart.saGrants,
                     rep.totals.dpaFlips - atStart.dpaFlips};

  const std::vector<std::uint8_t> state = saveState(sim);
  JsonValue r = JsonValue::Object{};
  r.set("workload", JsonValue("mesh16_knee"));
  r.set("scheme", JsonValue(spec.scheme.label));
  r.set("seed", JsonValue(opts.seed));
  r.set("cycles", JsonValue(static_cast<std::uint64_t>(sim.now())));
  r.set("in_flight_start",
        JsonValue(static_cast<std::uint64_t>(rep.inFlightStart)));
  r.set("in_flight_end",
        JsonValue(static_cast<std::uint64_t>(rep.inFlightEnd)));
  r.set("flit_hops", JsonValue(sim.network().totalFlitsTraversed()));
  r.set("va_grants", JsonValue(rep.totals.vaGrants));
  r.set("sa_grants", JsonValue(rep.totals.saGrants));
  r.set("dpa_flips", JsonValue(rep.totals.dpaFlips));
  r.set("state_fnv",
        JsonValue(hex64(snapshot::fnv1a64(state.data(), state.size()))));
  rep.record = r.dump();
  return rep;
}

double backlogGrowth(const KneeRep& rep) {
  return ratio(static_cast<double>(rep.inFlightEnd),
               static_cast<double>(std::max<std::size_t>(rep.inFlightStart,
                                                         1)));
}

void checkKneeRep(const KneeRep& rep, const std::string& reference,
                  const std::string& what, Outcome& out) {
  ++out.attempted;
  const double growth = backlogGrowth(rep);
  if (!(growth <= kMaxBacklogGrowth)) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s: backlog grew %.2fx over the timed phase (%zu -> %zu "
                  "packets in flight; limit %.2fx)",
                  what.c_str(), growth, rep.inFlightStart, rep.inFlightEnd,
                  kMaxBacklogGrowth);
    out.fail(buf);
  } else if (rep.hops == 0) {
    out.fail(what + ": no flit moved");
  } else if (!reference.empty() && rep.record != reference) {
    out.fail(what + ": record differs from the first repetition");
  }
}

void kneeUntraced(const Options& opts, Tracer& tracer, Outcome& out) {
  const KneeFixture fx;
  repeatForSeconds(opts, out, [&](int i) {
    const KneeRep rep = runKneeRep(fx, opts, tracer);
    if (i == 0) out.records = {rep.record};
    checkKneeRep(rep, out.records.front(),
                 "repetition " + std::to_string(i), out);
    return RepTimes{rep.wallS, rep.setupS,
                    static_cast<double>(kKneeTimed) / rep.timedS,
                    static_cast<double>(rep.hops) / rep.timedS};
  });
}

/// Shard pivot: one warmed simulator is saved (three times; the saves
/// must agree) and restored at 0, 1 and opts.threads shard threads; the
/// same cycle count is timed on each and the end states must be
/// byte-identical.
struct PivotResult {
  std::map<int, double> stepS;  ///< by shard threads
  std::vector<double> saveS, restoreS;
  std::size_t bytes = 0;
};

PivotResult shardPivot(const KneeFixture& fx, const Options& opts,
                       Tracer& tracer, Outcome& out) {
  PivotResult pr;
  const std::uint64_t root = tracer.newId();
  const Clock::time_point start = Clock::now();
  std::vector<std::uint8_t> warm;
  {
    AssembledScenario as = assembleScenario(fx.spec(opts, opts.threads));
    as.sim->begin();
    while (as.sim->now() < kKneeWarmup) as.sim->stepCycle();
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point s0 = Clock::now();
      std::vector<std::uint8_t> state = saveState(*as.sim);
      const Clock::time_point s1 = Clock::now();
      tracer.record(0, "Simulator::save", "snapshot", s0, s1, root);
      pr.saveS.push_back(seconds(s0, s1));
      if (!warm.empty() && state != warm)
        out.fail("shard pivot: repeated saves of one state differ");
      warm = std::move(state);
    }
  }
  pr.bytes = warm.size();

  std::vector<int> counts = {0, 1, opts.threads};
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  std::vector<std::uint8_t> endState;
  for (const int threads : counts) {
    AssembledScenario as = assembleScenario(fx.spec(opts, threads));
    const Clock::time_point r0 = Clock::now();
    snapshot::Reader reader(warm);
    as.sim->restore(reader);
    const Clock::time_point r1 = Clock::now();
    tracer.record(0, "Simulator::restore", "snapshot", r0, r1, root);
    pr.restoreS.push_back(seconds(r0, r1));
    as.sim->begin();
    const Cycle until = as.sim->now() + kPivotCycles;
    const Clock::time_point p0 = Clock::now();
    while (as.sim->now() < until) as.sim->stepCycle();
    const Clock::time_point p1 = Clock::now();
    JsonValue args = JsonValue::Object{};
    args.set("shard_threads", JsonValue(threads));
    tracer.record(0, "stepCycle.pivot", "shard", p0, p1, root,
                  std::move(args));
    pr.stepS[threads] = seconds(p0, p1);
    ++out.attempted;
    std::vector<std::uint8_t> state = saveState(*as.sim);
    if (endState.empty()) {
      endState = std::move(state);
    } else if (state != endState) {
      out.fail("shard pivot: end state at " + std::to_string(threads) +
               " shard threads differs from 0 threads");
    }
  }
  tracer.record(root, "shard.pivot", "shard", start, Clock::now());
  return pr;
}

void kneeTraced(const Options& opts, Tracer& tracer, Outcome& out) {
  const KneeFixture fx;
  Tracer off(false);
  const KneeRep plain = runKneeRep(fx, opts, off);
  out.records = {plain.record};
  checkKneeRep(plain, "", "untraced repetition", out);
  const KneeRep rep = runKneeRep(fx, opts, tracer);
  checkKneeRep(rep, plain.record, "traced repetition", out);
  out.reps = 2;
  const PivotResult pivot = shardPivot(fx, opts, tracer, out);

  const std::vector<double> chunkS = tracer.durations("stepCycle.chunk");
  const double timedS = sum(chunkS);
  out.metric("trace.overhead", "ratio", ratio(rep.wallS, plain.wallS));
  out.metric("saturation.calibrate_s", "s", 0.0, false);
  out.metric("saturation.share", "ratio", 0.0, false);
  out.metric("campaign.cells_s", "s", 0.0, false);
  out.metric("campaign.cell_s_p50", "s", 0.0, false);
  out.metric("campaign.cell_s_max", "s", 0.0, false);
  out.metric("campaign.worker_util", "ratio", 0.0, false);
  out.metric("sim.cycles", "count", static_cast<double>(kKneeTimed));
  out.metric("sim.flit_hops", "count", static_cast<double>(rep.hops));
  out.metric("sim.ns_per_flit_hop", "ns",
             ratio(timedS * 1e9, static_cast<double>(rep.hops)));
  out.metric("sim.chunk_ms_p50", "ms", median(chunkS) * 1e3);
  out.metric("sim.chunk_ms_p99", "ms", quantile(chunkS, 0.99) * 1e3);
  out.metric("sim.backlog_growth", "ratio", backlogGrowth(rep));
  out.metric("router.busy_frac", "ratio",
             ratio(static_cast<double>(rep.busy),
                   static_cast<double>(rep.routerCycles)));
  out.metric("router.va_grants", "count",
             static_cast<double>(rep.timedTotals.vaGrants));
  out.metric("router.sa_grants", "count",
             static_cast<double>(rep.timedTotals.saGrants));
  out.metric("core.dpa_flips", "count",
             static_cast<double>(rep.timedTotals.dpaFlips));
  const double t0 = pivot.stepS.at(0);
  out.metric("shard.t1_vs_t0", "ratio", ratio(pivot.stepS.at(1), t0));
  out.metric("shard.speedup_tn", "ratio",
             ratio(t0, pivot.stepS.at(opts.threads)));
  out.metric("snapshot.save_ms", "ms", median(pivot.saveS) * 1e3);
  out.metric("snapshot.restore_ms", "ms", median(pivot.restoreS) * 1e3);
  out.metric("snapshot.bytes", "bytes", static_cast<double>(pivot.bytes));
  out.metric("snapshot.cache_bytes", "bytes", 0.0, false);
  out.metric("fault.events", "count", 0.0, false);
  out.metric("fault.reroutes", "count", 0.0, false);
  out.metric("fault.dropped_packets", "count", 0.0, false);
  out.metric("fault.slowdown", "ratio", 0.0, false);
  out.metric("link.retx_flits", "count", 0.0, false);
  out.metric("link.retx_ratio", "ratio", 0.0, false);
  out.metric("routing.commit_us_p50", "us", 0.0, false);
  out.metric("routing.commit_us_max", "us", 0.0, false);
  out.metric("model_err_pp", "pp", 0.0, false);
  out.metric("peak_rss_mb", "MB", peakRssMb());
}

const CampaignConfig kFig09{"fig09", LinkLayerKind::Ideal, 0.0, false};
const CampaignConfig kFaultsRetx{"faults", LinkLayerKind::Retx, 2.0, true};

}  // namespace

bool isWorkload(const std::string& name) {
  return name == "fig09_campaign" || name == "mesh16_knee" ||
         name == "faults_retx";
}

Outcome runWorkload(const Options& opts, Tracer& tracer) {
  Outcome out;
  if (opts.workload == "mesh16_knee") {
    opts.trace ? kneeTraced(opts, tracer, out)
               : kneeUntraced(opts, tracer, out);
  } else {
    const CampaignConfig& cfg =
        opts.workload == "fig09_campaign" ? kFig09 : kFaultsRetx;
    opts.trace ? campaignTraced(cfg, opts, tracer, out)
               : campaignUntraced(cfg, opts, tracer, out);
  }
  return out;
}

int calibrateKnee(int threads) {
  // The knee of the whole workload under the scheme it runs: all four
  // (congruent) apps scaled together, paper calibration windows.
  const KneeFixture fx;
  const SaturationOptions so = campaign::paperSatOptions(/*fast=*/false);
  const auto aplAtRate = [&](double rate) {
    SimConfig cfg;
    cfg.warmupCycles = so.warmupCycles;
    cfg.measureCycles = so.measureCycles;
    cfg.drainLimit = so.drainLimit;
    const ScenarioResult r = runScenario(
        ScenarioSpec(fx.mesh, fx.regions)
            .withConfig(cfg)
            .withScheme(schemeRaRair(RoutingKind::Dbar))
            .withApps(kneeApps(rate))
            .withThreads(threads));
    return r.run.fullyDrained ? r.meanApl
                              : std::numeric_limits<double>::infinity();
  };
  const double sat = findSaturationRate(aplAtRate, so);
  std::printf("saturation %.17g flits/cycle/node; kKneeRate = %.17g\n", sat,
              kKneeFraction * sat);
  return 0;
}

}  // namespace perfbench
