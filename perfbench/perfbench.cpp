// perfbench: the repository benchmark's measuring program.
//
// Runs one named workload as a batch simulation that advances as fast as
// it can, and writes one JSON report: host block, workload block,
// end-to-end metrics, per-layer metrics (--trace 1) and the correctness
// verdict. run.py builds this binary, invokes it and prints the result.
//
//   perfbench --workload dhfr_engine --seed 2024 --seconds 10 --trace 0
//             --out report.json [--workdir DIR] [--git-sha SHA]
//             [--expect-hash HEX]
//   perfbench --workload dhfr_engine --seed 2024 --reference
//
// A run is a sequence of episodes. Each episode sets up a fresh runtime
// from the generated input, warms it up, then advances a fixed number of
// timed samples. The synthetic inputs cannot be run for long (see
// kSpecs), and the fixed episode length gives every episode the same
// final state: each one's state_hash() must equal the reference hash, the
// same trajectory produced independently (the engine at another thread
// count, or AntonEngine for the VM workload). --reference prints it.
//
// Layers are measured from outside through public APIs only: the engines'
// obs::Tracer spans (set_tracer), workload() counters, the VM's ledger()
// and wire()->stats(), and direct timed calls into measure_energy(),
// io::TrajectoryWriter::append and io::Checkpoint::save.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/anton_engine.hpp"
#include "core/simulation.hpp"
#include "io/io.hpp"
#include "io/trajectory.hpp"
#include "obs/trace.hpp"
#include "parallel/virtual_machine.hpp"
#include "sysgen/systems.hpp"

namespace {

using anton::System;
using anton::Vec3i;
using anton::core::AntonConfig;
using anton::core::AntonEngine;
using anton::core::NodeCounters;
using anton::obs::Tracer;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

// ---------------------------------------------------------------------------
// Workload catalogue.
// ---------------------------------------------------------------------------

// Episode lengths stay well inside what the synthetic inputs survive: the
// DHFR- and BPTI-like builds carry residual strain, and at 2.5 fs SHAKE
// stops converging after 18-31 cycles for some seeds; the golden peptide
// lasts hundreds of cycles.
struct Spec {
  const char* name;
  std::uint64_t default_seed;
  int cycles_per_sample;
  int warmup_cycles;      // untimed, after construction (part of set-up)
  int episode_samples;    // timed samples per episode
  int reference_threads;  // lane count of the independent reference run
  bool one_cpu;           // run the whole process on a single CPU
};

// The peptide VM exchanges tens of thousands of small frames per step, each
// a condvar hand-off between rank threads and the routing coordinator. Left
// to roam over a shared host's CPUs, its step time follows cross-CPU wake-up
// latency (the median moved 35 % under two busy neighbours on a 4-vCPU
// guest); on one CPU the hand-offs are local context switches and it
// measures the program's work (2 %). The engine workloads are compute-bound
// and use all their lanes.
const Spec kSpecs[] = {
    {"dhfr_engine", 2024, 1, 1, 8, 3, false},
    {"peptide_vm", 1234, 1, 8, 128, 2, true},
    // Five samples of 8 steps: one 40-step checkpoint period.
    {"bpti_production", 2024, 4, 1, 5, 3, false},
};

/// Restricts this process (and the threads it starts later) to the highest
/// CPU it may run on.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0)
      throw std::runtime_error("sched_setaffinity failed");
    return;
  }
  throw std::runtime_error("no CPU in the affinity mask");
}

/// Set-up is measured at least this many times per run and the median
/// reported; every episode contributes one measurement.
constexpr int kMinSetups = 3;

const Spec& spec_named(const std::string& name) {
  for (const Spec& s : kSpecs)
    if (name == s.name) return s;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// Every workload runs under Berendsen control at 300 K, as the paper's
// production runs did; without it the synthetic systems heat past 1000 K.
void berendsen(AntonConfig& c) {
  c.sim.thermostat = true;
  c.sim.target_temperature = 300.0;
  c.sim.berendsen_tau = 100.0;
}

AntonConfig paper_config(const char* system, int nthreads);

/// Input generation (not part of set-up). The paper systems get a short
/// form of the staging bench_table4 uses before its drift runs: a 12-cycle
/// thermostatted ramp at 0.8 fs burns off the builder's hot spots, then
/// fresh 300 K velocities. Without it some seeds' DHFR-like builds fail
/// SHAKE within the first 9 cycles at 2.5 fs.
System build_input(const std::string& workload, std::uint64_t seed) {
  using namespace anton::sysgen;
  if (workload == "peptide_vm")
    return build_test_system(70, 14.0, seed, true, 20);
  const char* name = workload == "dhfr_engine" ? "DHFR" : "BPTI";
  System sys = build_paper_system(spec_by_name(name), seed);
  AntonConfig ramp = paper_config(name, 4);
  ramp.sim.dt = 0.8;
  ramp.sim.berendsen_tau = 25.0;
  AntonEngine e(sys, ramp);
  e.run_cycles(12);
  sys.positions = e.positions();
  init_velocities(sys, 300.0, seed);
  return sys;
}

/// The golden-fixture configuration (7 A, 16^3, one step per MTS cycle).
AntonConfig peptide_config(const Vec3i& grid, int nthreads) {
  AntonConfig c;
  c.sim.cutoff = 7.0;
  c.sim.mesh = 16;
  c.sim.dt = 2.5;
  c.sim.long_range_every = 1;
  c.node_grid = grid;
  c.subbox_div = {1, 1, 1};
  c.migration_interval = 4;
  c.import_margin = 3.0;
  c.nthreads = nthreads;
  berendsen(c);
  return c;
}

AntonConfig paper_config(const char* system, int nthreads) {
  AntonConfig c;
  c.sim = anton::sysgen::params_for(anton::sysgen::spec_by_name(system));
  c.node_grid = {2, 2, 2};
  c.subbox_div = {2, 2, 2};
  c.migration_interval = 4;
  c.nthreads = nthreads;
  berendsen(c);
  return c;
}

// ---------------------------------------------------------------------------
// Runners: one per runtime.
// ---------------------------------------------------------------------------

NodeCounters sum_nodes(const anton::core::WorkloadProfile& p) {
  NodeCounters s;
  for (const NodeCounters& n : p.nodes) s += n;
  return s;
}

/// a - b over the dynamic counters.
NodeCounters minus(NodeCounters a, const NodeCounters& b) {
  a.pairs_considered -= b.pairs_considered;
  a.ppip_queue -= b.ppip_queue;
  a.interactions -= b.interactions;
  a.spread_ops -= b.spread_ops;
  a.interp_ops -= b.interp_ops;
  a.bond_terms -= b.bond_terms;
  a.correction_pairs -= b.correction_pairs;
  return a;
}

class Runner {
 public:
  virtual ~Runner() = default;
  virtual void run(int cycles) = 0;
  virtual std::uint64_t state_hash() const = 0;
  virtual void set_tracer(Tracer* t) = 0;
  /// Dynamic counters summed over nodes since construction.
  virtual NodeCounters counters() = 0;
};

class EngineRunner : public Runner {
 public:
  EngineRunner(System sys, const AntonConfig& cfg)
      : eng_(std::move(sys), cfg) {}
  void run(int cycles) override { eng_.run_cycles(cycles); }
  std::uint64_t state_hash() const override { return eng_.state_hash(); }
  void set_tracer(Tracer* t) override { eng_.set_tracer(t); }
  NodeCounters counters() override { return sum_nodes(eng_.workload()); }

 private:
  AntonEngine eng_;
};

class VmRunner : public Runner {
 public:
  VmRunner(System sys, const AntonConfig& cfg) : vm_(std::move(sys), cfg) {}
  void run(int cycles) override { vm_.run_cycles(cycles); }
  std::uint64_t state_hash() const override { return vm_.state_hash(); }
  void set_tracer(Tracer* t) override { vm_.set_tracer(t); }
  NodeCounters counters() override { return sum_nodes(vm_.workload()); }
  /// Starts the traffic window the accessors below report.
  void reset_traffic() {
    vm_.reset_ledger();
    wire_base_ = vm_.wire()->stats();
  }
  const anton::parallel::CommLedger& ledger() const { return vm_.ledger(); }
  anton::parallel::WireStats wire_delta() const {
    const auto& w = vm_.wire()->stats();
    return {w.roundtrips - wire_base_.roundtrips, w.bytes - wire_base_.bytes};
  }

 private:
  anton::parallel::VirtualMachine vm_;
  anton::parallel::WireStats wire_base_;
};

/// A production run through core::Simulation: a trajectory frame and an
/// energy measurement every 8 inner steps, a checkpoint every 40. With
/// direct_io the frames and checkpoints are written by timed direct calls
/// instead of the Simulation cadence (same files, same bytes).
class ProductionRunner : public Runner {
 public:
  static constexpr int kFrameEvery = 8;
  static constexpr int kEnergyEvery = 8;
  static constexpr int kCheckpointEvery = 40;

  struct EnergySample {
    std::int64_t step;
    double total, temperature;
  };

  ProductionRunner(System sys, const AntonConfig& cfg,
                   const std::filesystem::path& dir, bool direct_io)
      : dir_(dir), direct_io_(direct_io) {
    std::filesystem::create_directories(dir_);
    anton::core::SimulationConfig sc;
    sc.engine = cfg;
    sc.trajectory_path = (dir_ / "traj.antj").string();
    sc.checkpoint_path = (dir_ / "run.ckpt").string();
    if (direct_io_) {
      traj_ = std::make_unique<anton::io::TrajectoryWriter>(
          (dir_ / "traj_direct.antj").string(), sys.top.natoms);
    } else {
      sc.trajectory_every = kFrameEvery;
      sc.checkpoint_every = kCheckpointEvery;
    }
    sim_ = std::make_unique<anton::core::Simulation>(std::move(sys), sc);
  }
  ~ProductionRunner() override {
    sim_.reset();
    traj_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  ProductionRunner(const ProductionRunner&) = delete;
  ProductionRunner& operator=(const ProductionRunner&) = delete;

  void run(int cycles) override {
    sim_->run_cycles(cycles, [this](AntonEngine& e) {
      after_cycle(e);
      return true;
    });
  }
  std::uint64_t state_hash() const override {
    return sim_->engine().state_hash();
  }
  void set_tracer(Tracer* t) override {
    tracer_ = t;
    sim_->engine().set_tracer(t);
  }
  /// The dynamics' counters only; energy evaluations are not steps.
  NodeCounters counters() override {
    return minus(sum_nodes(sim_->engine().workload()), energy_counts_);
  }

  const std::vector<EnergySample>& energies() const { return energies_; }
  const std::vector<double>& energy_seconds() const { return energy_s_; }
  const std::vector<double>& frame_seconds() const { return frame_s_; }
  const std::vector<double>& frame_bytes() const { return frame_bytes_; }
  const std::vector<double>& checkpoint_seconds() const { return ckpt_s_; }
  const std::vector<double>& checkpoint_bytes() const { return ckpt_bytes_; }

 private:
  void after_cycle(AntonEngine& e) {
    const std::int64_t step = e.steps_done();
    if (direct_io_ && step % kFrameEvery == 0) {
      const std::int64_t b0 = traj_->bytes_written();
      const auto t0 = Clock::now();
      traj_->append(step, e.lattice_positions());
      frame_s_.push_back(seconds_since(t0));
      frame_bytes_.push_back(static_cast<double>(traj_->bytes_written() - b0));
    }
    if (direct_io_ && step % kCheckpointEvery == 0) {
      const auto t0 = Clock::now();
      anton::io::Checkpoint ck;
      ck.step = step;
      ck.positions = e.lattice_positions();
      ck.velocities = e.fixed_velocities();
      const std::string path = (dir_ / "direct.ckpt").string();
      ck.save(path);
      ckpt_s_.push_back(seconds_since(t0));
      ckpt_bytes_.push_back(
          static_cast<double>(std::filesystem::file_size(path)));
    }
    if (step % kEnergyEvery == 0) {
      // The energy pass is timed on its own: detach the tracer so its
      // force recomputation does not land in the step's phase spans.
      const NodeCounters before = sum_nodes(e.workload());
      e.set_tracer(nullptr);
      const auto t0 = Clock::now();
      const anton::core::EnergyReport r = e.measure_energy();
      energy_s_.push_back(seconds_since(t0));
      e.set_tracer(tracer_);
      energy_counts_ += minus(sum_nodes(e.workload()), before);
      energies_.push_back({step, r.total(), r.temperature});
    }
  }

  std::filesystem::path dir_;
  bool direct_io_;
  std::unique_ptr<anton::io::TrajectoryWriter> traj_;
  std::unique_ptr<anton::core::Simulation> sim_;
  Tracer* tracer_ = nullptr;
  NodeCounters energy_counts_;
  std::vector<EnergySample> energies_;
  std::vector<double> energy_s_, frame_s_, frame_bytes_, ckpt_s_, ckpt_bytes_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string workdir = ".";
  std::string git_sha = "unknown";
  std::string expect_hash;  // empty: compute the reference in-process
  bool reference = false;   // print the reference hash and exit
};

std::filesystem::path run_dir(const Options& o, const char* tag) {
  return std::filesystem::path(o.workdir) /
         (std::string(tag) + "-" + std::to_string(::getpid()));
}

/// The measured runner for a workload (the configuration the end-to-end
/// metrics describe).
std::unique_ptr<Runner> make_runner(const Options& o, const Spec& s,
                                    const System& sys) {
  const std::string w = s.name;
  if (w == "dhfr_engine")
    return std::make_unique<EngineRunner>(sys, paper_config("DHFR", 4));
  if (w == "peptide_vm")
    return std::make_unique<VmRunner>(sys, peptide_config({2, 2, 1}, 1));
  return std::make_unique<ProductionRunner>(sys, paper_config("BPTI", 4),
                                            run_dir(o, "bpti"), o.trace);
}

/// The independent producer of the reference trajectory: the same engine
/// program at another thread count, or AntonEngine for the VM workload.
std::uint64_t reference_hash(const Options& o, const Spec& s,
                             const System& sys) {
  const std::string w = s.name;
  const int t = s.reference_threads;
  std::unique_ptr<Runner> r;
  if (w == "dhfr_engine")
    r = std::make_unique<EngineRunner>(sys, paper_config("DHFR", t));
  else if (w == "peptide_vm")
    r = std::make_unique<EngineRunner>(sys, peptide_config({1, 1, 1}, t));
  else
    r = std::make_unique<ProductionRunner>(sys, paper_config("BPTI", t),
                                           run_dir(o, "bpti-ref"), false);
  r->run(s.warmup_cycles + s.episode_samples * s.cycles_per_sample);
  return r->state_hash();
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double mean(const std::vector<double>& v) {
  return safe_div(sum(v), static_cast<double>(v.size()));
}

/// The highest whole percentile that leaves at least 10 samples above it
/// (nearest rank). With 10 samples or fewer no percentile qualifies; the
/// maximum is reported as percentile 100.
struct Tail {
  double value = 0.0;
  int percentile = 100;
  int beyond = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const int n = static_cast<int>(v.size());
  t.value = v.back();
  for (int p = 99; p >= 1 && n > 10; --p) {
    const int rank = (p * n + 99) / 100;  // ceil(p/100 * n), 1-based
    if (n - rank >= 10) {
      t.value = v[rank - 1];
      t.percentile = p;
      t.beyond = n - rank;
      break;
    }
  }
  return t;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string hex64(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Ordered name -> (value, unit) list, rendered as the contract's metric
/// objects.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void put(const std::string& name, double v, const std::string& unit) {
    for (auto& it : items)
      if (it.first == name) {
        it.second = {v, unit};
        return;
      }
    items.push_back({name, {v, unit}});
  }
  std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i) s += ", ";
      s += quoted(items[i].first) + ": {\"value\": " +
           num(items[i].second.first) + ", \"unit\": " +
           quoted(items[i].second.second) + "}";
    }
    return s + "}";
  }
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto c = line.find(':');
      if (c != std::string::npos) {
        std::string m = line.substr(c + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

std::string host_json(const Options& o) {
  std::ostringstream s;
  s << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << quoted(cpu_model())
    << ", \"isa\": {\"avx2\": "
    << (__builtin_cpu_supports("avx2") ? "true" : "false")
    << ", \"avx512f\": "
    << (__builtin_cpu_supports("avx512f") ? "true" : "false")
    << "}, \"compiler\": " << quoted(std::string("g++ ") + __VERSION__)
    << ", \"cxx_flags\": " << quoted(PERFBENCH_CXX_FLAGS)
    << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
    << ", \"git_sha\": " << quoted(o.git_sha) << "}";
  return s.str();
}

std::string grid_str(const Vec3i& g) {
  return std::to_string(g.x) + "x" + std::to_string(g.y) + "x" +
         std::to_string(g.z);
}

struct WorkloadInfo {
  std::string label, runtime, transport = "none";
  int natoms = 0, charged = 0, threads = 0, steps_per_sample = 0;
  double cutoff = 0.0, dt_fs = 0.0;
  int mesh = 0;
  Vec3i grid{0, 0, 0}, subbox{0, 0, 0};
};

WorkloadInfo describe(const Spec& s, const System& sys) {
  WorkloadInfo w;
  const std::string name = s.name;
  const std::string n = std::to_string(sys.top.natoms);
  AntonConfig c;
  if (name == "dhfr_engine") {
    w.label = "dhfr_like_" + n + "atoms";
    w.runtime = "AntonEngine";
    c = paper_config("DHFR", 4);
    w.threads = c.nthreads;
  } else if (name == "peptide_vm") {
    // The golden fixture system, not the 1240-atom kernel harness.
    w.label = "golden_peptide_solvated_" + n + "atoms";
    w.runtime = "VirtualMachine";
    w.transport = "inproc";
    c = peptide_config({2, 2, 1}, 1);
    w.threads = c.node_grid.x * c.node_grid.y * c.node_grid.z;
  } else {
    w.label = "bpti_like_4site_" + n + "atoms";
    w.runtime = "Simulation";
    c = paper_config("BPTI", 4);
    w.threads = c.nthreads;
  }
  w.natoms = sys.top.natoms;
  for (double q : sys.top.charge) w.charged += q != 0.0;
  w.cutoff = c.sim.cutoff;
  w.mesh = c.sim.resolved_gse().mesh;
  w.grid = c.node_grid;
  w.subbox = c.subbox_div;
  w.dt_fs = c.sim.dt;
  w.steps_per_sample =
      s.cycles_per_sample * std::max(1, c.sim.long_range_every);
  return w;
}

// ---------------------------------------------------------------------------
// Per-layer metrics.
// ---------------------------------------------------------------------------

/// The Table 2 slots whose shares, with energy and `other`, sum to 100 %
/// of the traced wall time. On the VM each slot is the rank-mean of the
/// matching worker phase; position multicast and bond dispatch, pure
/// communication phases, fall into `other`.
struct Slot {
  const char* name;
  const char* vm_span;
};
const Slot kSlots[] = {
    {"range_limited", "vm.compute"},
    {"gse.spread", "vm.gse.spread"},
    {"gse.fft", "vm.gse.fft"},
    {"gse.interpolate", "vm.gse.interpolate"},
    {"bonded", "vm.bond_terms"},
    {"correction", "vm.correction"},
    {"force_reduce", "vm.force_return"},
    {"integrate", "vm.integrate"},
    {"migrate", "vm.migrate"},
};

/// The worker phases the VM reports per rank (WorkerRuntime span names).
const char* const kVmPhases[] = {
    "position_multicast", "compute",         "bond_dispatch",
    "bond_terms",         "force_return",    "gse.spread",
    "gse.fft",            "gse.interpolate", "correction",
    "integrate",          "migrate",         "mts_cycle",
};

const char* const kCommPhases[] = {"position", "force",     "bond",  "mesh",
                                   "fft",      "migration", "reduce"};

/// Every per-layer metric with its unit, zero-initialised: a metric the
/// workload does not exercise reports 0.
Metrics layer_catalogue() {
  Metrics m;
  for (const Slot& s : kSlots) {
    m.put(std::string(s.name) + ".ms_per_step", 0.0, "ms/step");
    m.put(std::string(s.name) + ".share", 0.0, "frac");
  }
  m.put("other.ms_per_step", 0.0, "ms/step");
  m.put("other.share", 0.0, "frac");
  for (const char* c : {"considered", "queued", "computed"})
    m.put(std::string("pairs.") + c + "_per_step", 0.0, "pairs/step");
  m.put("pairs.match_efficiency", 0.0, "frac");
  m.put("scaling.speedup_vs_1thread", 0.0, "x");
  m.put("range_limited.speedup_vs_1thread", 0.0, "x");
  m.put("integrate.speedup_vs_1thread", 0.0, "x");
  m.put("gse.spread_ops_per_step", 0.0, "ops/step");
  m.put("gse.interp_ops_per_step", 0.0, "ops/step");
  m.put("gse.mesh_points_per_atom", 0.0, "points/atom");
  m.put("bonded.terms_per_step", 0.0, "terms/step");
  m.put("correction.pairs_per_step", 0.0, "pairs/step");
  for (const char* p : kVmPhases) {
    m.put(std::string("vm.") + p + ".ms_per_step", 0.0, "ms/step");
    m.put(std::string("vm.") + p + ".max_rank_ms_per_step", 0.0, "ms/step");
  }
  m.put("vm.rank_imbalance", 0.0, "ratio");
  m.put("vm.gse.share", 0.0, "frac");
  for (const char* c : kCommPhases) {
    m.put(std::string("comm.") + c + ".messages_per_step", 0.0, "msgs/step");
    m.put(std::string("comm.") + c + ".bytes_per_step", 0.0, "B/step");
  }
  m.put("wire.roundtrips_per_step", 0.0, "roundtrips/step");
  m.put("wire.bytes_per_step", 0.0, "B/step");
  m.put("energy.ms_per_call", 0.0, "ms/call");
  m.put("energy.share", 0.0, "frac");
  m.put("io.frame_ms", 0.0, "ms");
  m.put("io.frame_bytes", 0.0, "B");
  m.put("io.checkpoint_ms", 0.0, "ms");
  m.put("io.checkpoint_bytes", 0.0, "B");
  m.put("trace.overhead_frac", 0.0, "frac");
  return m;
}

/// What the traced episodes measured, summed over episodes.
struct TracedWindow {
  double wall = 0.0;  // seconds, sum of traced sample times
  double steps = 0.0;
  double cycles = 0.0;
  std::map<int, std::map<std::string, double>> spans;  // track -> name -> s
  NodeCounters counters;
  std::int64_t comm_messages[7] = {}, comm_bytes[7] = {};
  anton::parallel::WireStats wire;
  std::vector<double> energy_s, frame_s, frame_bytes, ckpt_s, ckpt_bytes;

  /// Folds in one finished traced episode; `warm` is the counter state at
  /// the start of its timed samples.
  void add(Runner& r, const NodeCounters& warm, double episode_wall,
           double episode_steps, double episode_cycles) {
    wall += episode_wall;
    steps += episode_steps;
    cycles += episode_cycles;
    counters += minus(r.counters(), warm);
    if (auto* vm = dynamic_cast<VmRunner*>(&r)) {
      const auto& led = vm->ledger();
      const anton::parallel::PhaseComm* p[] = {
          &led.position, &led.force,     &led.bond,  &led.mesh,
          &led.fft,      &led.migration, &led.reduce};
      for (int i = 0; i < 7; ++i) {
        comm_messages[i] += p[i]->messages;
        comm_bytes[i] += p[i]->bytes;
      }
      const auto ws = vm->wire_delta();
      wire.roundtrips += ws.roundtrips;
      wire.bytes += ws.bytes;
    }
    if (auto* pr = dynamic_cast<ProductionRunner*>(&r)) {
      const auto app = [](std::vector<double>& to,
                          const std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
      };
      app(energy_s, pr->energy_seconds());
      app(frame_s, pr->frame_seconds());
      app(frame_bytes, pr->frame_bytes());
      app(ckpt_s, pr->checkpoint_seconds());
      app(ckpt_bytes, pr->checkpoint_bytes());
    }
  }
};

std::map<int, std::map<std::string, double>> span_totals(const Tracer& t) {
  std::map<int, std::map<std::string, double>> by_track;
  for (const anton::obs::SpanRecord& sp : t.spans())
    by_track[sp.tid][sp.name] += sp.dur_us * 1e-6;
  return by_track;
}

/// Table 2 slot seconds: engine track 0, or the rank mean on the VM.
std::map<std::string, double> slot_seconds(
    const std::map<int, std::map<std::string, double>>& spans, bool vm) {
  std::map<std::string, double> out;
  for (const Slot& s : kSlots) {
    double t = 0.0;
    int tracks = 0;
    for (const auto& [tid, names] : spans) {
      if (vm != (tid >= 1)) continue;
      ++tracks;
      const auto it = names.find(vm ? s.vm_span : s.name);
      if (it != names.end()) t += it->second;
    }
    out[s.name] = safe_div(t, tracks);
  }
  return out;
}

void fill_layers(Metrics& m, const TracedWindow& w, bool vm, int charged) {
  double covered = sum(w.energy_s);
  for (const auto& [name, t] : slot_seconds(w.spans, vm)) {
    m.put(name + ".ms_per_step", 1e3 * safe_div(t, w.steps), "ms/step");
    m.put(name + ".share", safe_div(t, w.wall), "frac");
    covered += t;
  }
  const double other = w.wall - covered;
  m.put("other.ms_per_step", 1e3 * safe_div(other, w.steps), "ms/step");
  m.put("other.share", safe_div(other, w.wall), "frac");

  const NodeCounters& c = w.counters;
  const auto per_step = [&](std::int64_t v) {
    return safe_div(static_cast<double>(v), w.steps);
  };
  m.put("pairs.considered_per_step", per_step(c.pairs_considered),
        "pairs/step");
  m.put("pairs.queued_per_step", per_step(c.ppip_queue), "pairs/step");
  m.put("pairs.computed_per_step", per_step(c.interactions), "pairs/step");
  m.put("pairs.match_efficiency",
        safe_div(static_cast<double>(c.interactions),
                 static_cast<double>(c.pairs_considered)),
        "frac");
  m.put("gse.spread_ops_per_step", per_step(c.spread_ops), "ops/step");
  m.put("gse.interp_ops_per_step", per_step(c.interp_ops), "ops/step");
  // One charge spread per MTS cycle.
  m.put("gse.mesh_points_per_atom",
        safe_div(static_cast<double>(c.spread_ops), w.cycles * charged),
        "points/atom");
  m.put("bonded.terms_per_step", per_step(c.bond_terms), "terms/step");
  m.put("correction.pairs_per_step", per_step(c.correction_pairs),
        "pairs/step");

  m.put("energy.ms_per_call", 1e3 * mean(w.energy_s), "ms/call");
  m.put("energy.share", safe_div(sum(w.energy_s), w.wall), "frac");
  m.put("io.frame_ms", 1e3 * mean(w.frame_s), "ms");
  m.put("io.frame_bytes", mean(w.frame_bytes), "B");
  m.put("io.checkpoint_ms", 1e3 * mean(w.ckpt_s), "ms");
  m.put("io.checkpoint_bytes", mean(w.ckpt_bytes), "B");
}

void fill_vm_layers(Metrics& m, const TracedWindow& w) {
  std::map<std::string, double> mean_s, max_s;
  std::map<int, double> busy;  // per rank: all phases but the cycle span
  int ranks = 0;
  for (const auto& [tid, names] : w.spans) {
    if (tid < 1) continue;
    ++ranks;
    for (const char* p : kVmPhases) {
      const auto it = names.find(std::string("vm.") + p);
      const double t = it != names.end() ? it->second : 0.0;
      mean_s[p] += t;
      max_s[p] = std::max(max_s[p], t);
      if (std::strcmp(p, "mts_cycle") != 0) busy[tid] += t;
    }
  }
  for (const char* p : kVmPhases) {
    m.put(std::string("vm.") + p + ".ms_per_step",
          1e3 * safe_div(safe_div(mean_s[p], ranks), w.steps), "ms/step");
    m.put(std::string("vm.") + p + ".max_rank_ms_per_step",
          1e3 * safe_div(max_s[p], w.steps), "ms/step");
  }
  double busy_max = 0.0, busy_sum = 0.0;
  for (const auto& [tid, t] : busy) {
    busy_max = std::max(busy_max, t);
    busy_sum += t;
  }
  m.put("vm.rank_imbalance", safe_div(busy_max, safe_div(busy_sum, ranks)),
        "ratio");
  m.put("vm.gse.share",
        safe_div(mean_s["gse.spread"] + mean_s["gse.fft"] +
                     mean_s["gse.interpolate"],
                 mean_s["mts_cycle"]),
        "frac");
  for (int i = 0; i < 7; ++i) {
    const std::string base = std::string("comm.") + kCommPhases[i];
    m.put(base + ".messages_per_step",
          safe_div(static_cast<double>(w.comm_messages[i]), w.steps),
          "msgs/step");
    m.put(base + ".bytes_per_step",
          safe_div(static_cast<double>(w.comm_bytes[i]), w.steps), "B/step");
  }
  m.put("wire.roundtrips_per_step",
        safe_div(static_cast<double>(w.wire.roundtrips), w.steps),
        "roundtrips/step");
  m.put("wire.bytes_per_step",
        safe_div(static_cast<double>(w.wire.bytes), w.steps), "B/step");
}

/// The short 1-thread pass of the engine workload: the same system on one
/// lane, traced, against the 4-lane traced window.
void fill_scaling(Metrics& m, const System& sys, const TracedWindow& w) {
  EngineRunner one(sys, paper_config("DHFR", 1));
  Tracer tracer;
  one.set_tracer(&tracer);
  const int cycles = 2;  // one with migration, one without
  const auto t0 = Clock::now();
  one.run(cycles);
  const double wall1 = seconds_since(t0);
  one.set_tracer(nullptr);
  const double steps1 = w.steps / w.cycles * cycles;
  const auto s1 = slot_seconds(span_totals(tracer), false);
  const auto sn = slot_seconds(w.spans, false);
  const auto ratio = [&](double t1, double tn) {
    return safe_div(safe_div(t1, steps1), safe_div(tn, w.steps));
  };
  m.put("scaling.speedup_vs_1thread", ratio(wall1, w.wall), "x");
  m.put("range_limited.speedup_vs_1thread",
        ratio(s1.at("range_limited"), sn.at("range_limited")), "x");
  m.put("integrate.speedup_vs_1thread",
        ratio(s1.at("integrate"), sn.at("integrate")), "x");
}

/// Least-squares slope of total energy against simulated time (kcal/mol
/// per ns) within one episode.
double drift_per_ns(const std::vector<ProductionRunner::EnergySample>& e,
                    double dt_fs) {
  if (e.size() < 2) return 0.0;
  double st = 0, se = 0, stt = 0, ste = 0;
  const double n = static_cast<double>(e.size());
  for (const auto& x : e) {
    const double t = static_cast<double>(x.step) * dt_fs * 1e-6;
    st += t;
    se += x.total;
    stt += t * t;
    ste += t * x.total;
  }
  return safe_div(n * ste - st * se, n * stt - st * st);
}

// ---------------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------------

struct Physics {
  int samples = 0;
  bool finite = true;
  double temp_sum = 0.0;
  std::vector<double> drifts;  // one per episode
};

/// Everything a run measured.
struct RunLog {
  std::vector<double> setup_s;
  std::vector<double> samples;         // untraced sample seconds
  std::vector<double> traced_samples;  // traced sample seconds
  std::vector<std::uint64_t> hashes;   // final hash per completed episode
  int episodes = 0;
  int attempted_cycles = 0;
  int threw_cycles = 0;
  std::string error;
  Physics physics;
};

/// One episode: a fresh runner set up from the input and warmed up, then
/// `episode_samples` timed samples. With a tracer the samples are traced
/// and the episode is folded into `w`. Returns false if a sample threw
/// (the run stops there).
bool run_episode(const Options& o, const Spec& s, const WorkloadInfo& info,
                 const System& sys, Tracer* tracer, TracedWindow* w,
                 RunLog& log) {
  ++log.episodes;
  const auto t0 = Clock::now();
  std::unique_ptr<Runner> r = make_runner(o, s, sys);
  r->run(s.warmup_cycles);
  log.setup_s.push_back(seconds_since(t0));
  const NodeCounters warm = r->counters();
  if (tracer) {
    r->set_tracer(tracer);
    if (auto* vm = dynamic_cast<VmRunner*>(r.get())) vm->reset_traffic();
  }
  std::vector<double>& out = tracer ? log.traced_samples : log.samples;
  double wall = 0.0;
  for (int i = 0; i < s.episode_samples; ++i) {
    log.attempted_cycles += s.cycles_per_sample;
    const auto ts = Clock::now();
    try {
      r->run(s.cycles_per_sample);
    } catch (const std::exception& e) {
      log.threw_cycles += s.cycles_per_sample;
      log.error = e.what();
      return false;
    }
    out.push_back(seconds_since(ts));
    wall += out.back();
  }
  if (tracer) {
    r->set_tracer(nullptr);
    w->add(*r, warm, wall, s.episode_samples * info.steps_per_sample,
           s.episode_samples * s.cycles_per_sample);
  }
  if (auto* pr = dynamic_cast<ProductionRunner*>(r.get())) {
    for (const auto& e : pr->energies()) {
      log.physics.finite = log.physics.finite && std::isfinite(e.total) &&
                           std::isfinite(e.temperature);
      log.physics.temp_sum += e.temperature;
      ++log.physics.samples;
    }
    log.physics.drifts.push_back(drift_per_ns(pr->energies(), info.dt_fs));
  }
  log.hashes.push_back(r->state_hash());
  return true;
}

int run_reference(const Options& o, const Spec& s) {
  const std::uint64_t seed = o.seed_given ? o.seed : s.default_seed;
  const System sys = build_input(s.name, seed);
  const std::uint64_t h = reference_hash(o, s, sys);
  std::printf("{\"workload\": %s, \"seed\": %llu, \"threads\": %d, "
              "\"hash\": %s}\n",
              quoted(s.name).c_str(), static_cast<unsigned long long>(seed),
              s.reference_threads, quoted(hex64(h)).c_str());
  return 0;
}

int run_measure(const Options& o, const Spec& s) {
  const std::uint64_t seed = o.seed_given ? o.seed : s.default_seed;
  const System sys = build_input(s.name, seed);
  const WorkloadInfo info = describe(s, sys);

  // Untraced episodes for the first half (all of it without --trace), then
  // traced episodes for the second half; at least one of each.
  RunLog log;
  const auto t0 = Clock::now();
  const double untraced_s = o.trace ? 0.5 * o.seconds : o.seconds;
  bool ok = true;
  do {
    ok = run_episode(o, s, info, sys, nullptr, nullptr, log);
  } while (ok && seconds_since(t0) < untraced_s);
  Tracer tracer;
  TracedWindow w;
  if (ok && o.trace) {
    do {
      ok = run_episode(o, s, info, sys, &tracer, &w, log);
    } while (ok && seconds_since(t0) < o.seconds);
    w.spans = span_totals(tracer);
  }
  while (ok && static_cast<int>(log.setup_s.size()) < kMinSetups) {
    const auto ts = Clock::now();
    make_runner(o, s, sys)->run(s.warmup_cycles);
    log.setup_s.push_back(seconds_since(ts));
  }

  Metrics layers = layer_catalogue();
  const bool is_vm = std::string(s.name) == "peptide_vm";
  const bool is_prod = std::string(s.name) == "bpti_production";
  if (ok && o.trace) {
    fill_layers(layers, w, is_vm, info.charged);
    if (is_vm) fill_vm_layers(layers, w);
    if (std::string(s.name) == "dhfr_engine") fill_scaling(layers, sys, w);
    layers.put("trace.overhead_frac",
               safe_div(median(log.traced_samples), median(log.samples)) -
                   1.0,
               "frac");
  }

  // Correctness: every episode ends on the reference state.
  std::string expected = o.expect_hash;
  std::string source = "given";
  if (expected.empty()) {
    expected = hex64(reference_hash(o, s, sys));
    source = "computed (" + std::to_string(s.reference_threads) + " threads)";
  }
  bool hash_ok = ok;
  for (std::uint64_t h : log.hashes) hash_ok = hash_ok && hex64(h) == expected;
  const bool correct = hash_ok && log.physics.finite;
  const int failed = correct ? 0 : log.attempted_cycles;

  // End-to-end metrics over the untraced samples.
  Metrics e2e;
  const double wall = sum(log.samples);
  const double steps =
      static_cast<double>(log.samples.size()) * info.steps_per_sample;
  std::vector<double> ms;
  for (double x : log.samples) ms.push_back(1e3 * x / info.steps_per_sample);
  const Tail tail = tail_of(ms);
  e2e.put("ns_per_day", safe_div(steps * info.dt_fs * 1e-6, wall) * 86400.0,
          "ns/day");
  e2e.put("step_ms_p50", median(ms), "ms");
  e2e.put("step_ms_tail", tail.value, "ms");
  e2e.put("setup_s", median(log.setup_s), "s");
  e2e.put("peak_rss_mb", peak_rss_mb(), "MB");
  e2e.put("completed_frac",
          1.0 - safe_div(failed, static_cast<double>(log.attempted_cycles)),
          "frac");

  std::ostringstream js;
  js << "{\"workload\": " << quoted(s.name) << ", \"seed\": " << seed
     << ", \"trace\": " << (o.trace ? "true" : "false")
     << ",\n \"host\": " << host_json(o)
     << ",\n \"system\": {\"label\": " << quoted(info.label)
     << ", \"natoms\": " << info.natoms
     << ", \"charged_atoms\": " << info.charged
     << ", \"cutoff_A\": " << num(info.cutoff) << ", \"mesh\": " << info.mesh
     << ", \"node_grid\": " << quoted(grid_str(info.grid))
     << ", \"subbox\": " << quoted(grid_str(info.subbox))
     << ", \"threads\": " << info.threads
     << ", \"one_cpu\": " << (s.one_cpu ? "true" : "false")
     << ", \"runtime\": " << quoted(info.runtime)
     << ", \"transport\": " << quoted(info.transport)
     << ", \"dt_fs\": " << num(info.dt_fs)
     << ", \"steps_per_sample\": " << info.steps_per_sample
     << ", \"cycles_per_sample\": " << s.cycles_per_sample
     << ", \"warmup_cycles\": " << s.warmup_cycles
     << ", \"episode_samples\": " << s.episode_samples << "}"
     << ",\n \"run\": {\"episodes\": " << log.episodes
     << ", \"samples\": " << log.samples.size()
     << ", \"traced_samples\": " << log.traced_samples.size()
     << ", \"timed_s\": " << num(wall)
     << ", \"tail_percentile\": " << tail.percentile
     << ", \"tail_beyond\": " << tail.beyond << ", \"setup_s\": [";
  for (std::size_t i = 0; i < log.setup_s.size(); ++i)
    js << (i ? ", " : "") << num(log.setup_s[i]);
  js << "]}"
     << ",\n \"check\": {\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << log.attempted_cycles
     << ", \"failed\": " << failed << ", \"threw\": " << log.threw_cycles
     << ", \"error\": " << quoted(log.error)
     << ", \"expected_hash\": " << quoted(expected)
     << ", \"expected_from\": " << quoted(source) << ", \"episode_hashes\": [";
  for (std::size_t i = 0; i < log.hashes.size(); ++i)
    js << (i ? ", " : "") << quoted(hex64(log.hashes[i]));
  js << "]}"
     << ",\n \"metrics\": " << e2e.json();
  if (o.trace) js << ",\n \"layers\": " << layers.json();
  if (is_prod) {
    const Physics& p = log.physics;
    js << ",\n \"physics\": {\"energy_samples\": " << p.samples
       << ", \"finite\": " << (p.finite ? "true" : "false")
       << ", \"energy_drift_kcal_per_mol_ns\": " << num(mean(p.drifts))
       << ", \"mean_temperature_K\": " << num(safe_div(p.temp_sum, p.samples))
       << "}";
  }
  js << "}\n";

  if (o.out.empty()) {
    std::fputs(js.str().c_str(), stdout);
    return 0;
  }
  std::ofstream f(o.out);
  f << js.str();
  if (!f) throw std::runtime_error("cannot write " + o.out);
  return 0;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      o.seed = std::stoull(next());
      o.seed_given = true;
    } else if (a == "--seconds") {
      o.seconds = std::stod(next());
    } else if (a == "--trace") {
      o.trace = std::stoi(next()) != 0;
    } else if (a == "--out") {
      o.out = next();
    } else if (a == "--workdir") {
      o.workdir = next();
    } else if (a == "--git-sha") {
      o.git_sha = next();
    } else if (a == "--expect-hash") {
      o.expect_hash = next();
    } else if (a == "--reference") {
      o.reference = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const Spec& s = spec_named(o.workload);
    if (s.one_cpu) pin_to_one_cpu();
    return o.reference ? run_reference(o, s) : run_measure(o, s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
