// Monte-Carlo tracking benchmark program.
//
//   perfbench --workload paper-dense --seed 1 --seconds 55 --trace 0
//
// Runs one workload closed-loop for about --seconds, checks its outcomes
// against sim::run_trial(), prints a human-readable report (host context,
// sample counts, the layer report when tracing) and, as the last line of
// standard output, one JSON object with the metrics. See README.md.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "host.hpp"
#include "probe.hpp"
#include "random/engine.hpp"
#include "sim/runspec.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "trial.hpp"

namespace {

using namespace perfbench;
using cdpf::sim::AlgorithmKind;

// ---------------------------------------------------------------------------
// Workloads

// A workload's trial set is `trials` trial indices of every cell. Every
// pass of a run covers the whole set: the first pass gives the outcome
// metrics (identical in every run at a fixed seed), and all passes time it.
struct Workload {
  std::string name;
  std::vector<Cell> cells;
  bool churn = false;
  bool parallel = false;   // nproc workers through run_slots_ordered
  std::size_t trials = 1;  // trial indices per cell in the set

  std::size_t set_size() const { return cells.size() * trials; }
};

std::vector<Cell> cross(std::initializer_list<AlgorithmKind> kinds,
                        std::initializer_list<double> densities) {
  std::vector<Cell> cells;
  for (const AlgorithmKind k : kinds) {
    for (const double d : densities) {
      cells.push_back({k, d});
    }
  }
  return cells;
}

constexpr AlgorithmKind kCpf = AlgorithmKind::kCpf;
constexpr AlgorithmKind kSdpf = AlgorithmKind::kSdpf;
constexpr AlgorithmKind kCdpf = AlgorithmKind::kCdpf;
constexpr AlgorithmKind kCdpfNe = AlgorithmKind::kCdpfNe;

// cdpf-sweep and paper-sweep-mt are runnable but left out of BENCHMARK.json;
// README.md says why.
std::vector<Workload> workloads() {
  return {
      {"paper-dense", cross({kCpf, kSdpf, kCdpf, kCdpfNe}, {40.0}), false, false, 10},
      {"cdpf-sweep", cross({kCdpf, kCdpfNe}, {10.0, 20.0, 40.0}), false, false, 32},
      {"churn-dense", cross({kCpf, kSdpf, kCdpf, kCdpfNe}, {40.0}), true, false, 10},
      {"paper-sweep-mt", cross({kCpf, kSdpf, kCdpf, kCdpfNe}, {10.0, 20.0, 40.0}), false,
       true, 8},
  };
}

// The trackers the per-layer report names, in report order.
constexpr AlgorithmKind kTrackers[] = {kCpf, kSdpf, kCdpf, kCdpfNe};
std::string tracker_key(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kCpf: return "cpf";
    case AlgorithmKind::kSdpf: return "sdpf";
    case AlgorithmKind::kCdpf: return "cdpf";
    case AlgorithmKind::kCdpfNe: return "cdpf-ne";
    default: return "other";
  }
}

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t workers = 0;  // 0 = the workload's default
  bool smoke = false;       // one trial of every cell, one pass (self-tests)
  bool perturb_reference = false;
  std::string revision = "unknown";
  std::string out_dir;  // where the report and span files go; empty = none
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workers N] [--smoke] [--perturb-reference] "
               "[--revision REV] [--out-dir DIR]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key != "--smoke" && key != "--perturb-reference") {
      if (i + 1 >= argc) {
        usage_error("missing value for " + key);
      }
      value = argv[++i];
    }
    try {
      if (key == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (key == "--workers") {
        o.workers = std::stoul(value);
      } else if (key == "--smoke") {
        o.smoke = true;
      } else if (key == "--perturb-reference") {
        o.perturb_reference = true;
      } else if (key == "--revision") {
        o.revision = value;
      } else if (key == "--out-dir") {
        o.out_dir = value;
      } else {
        usage_error("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value '" + value + "' for " + key);
    }
  }
  if (!have_workload || !have_seed) {
    usage_error("--workload and --seed are required");
  }
  if (!(o.seconds > 0.0)) {
    usage_error("--seconds must be positive");
  }
  return o;
}

// ---------------------------------------------------------------------------
// Measured phase: closed-loop passes until the time is up

struct Phase {
  // Each pass appends the whole set (slot = cell * trials + trial);
  // worker_of runs parallel to records.
  std::vector<TrialRecord> records;
  std::vector<std::thread::id> worker_of;
  std::vector<double> pass_wall_s;
  std::size_t workers = 1;
  double wall_s = 0.0;
  SpanLog spans;

  std::size_t passes() const { return pass_wall_s.size(); }
};

// One pass = one run_slots_ordered() call, cell-major like the figure
// benches. Every worker starts its next trial only when its previous one
// finished; a pass ends when its slowest worker does. `after_pass` runs
// between passes, outside their timing. Another pass starts only while one
// more (as long as the last) still fits in `seconds`.
void run_phase(const Workload& w, const cdpf::sim::AlgorithmParams& params,
               std::uint64_t root_seed, double seconds, std::size_t min_passes,
               bool traced, Phase& phase, const std::function<void()>& after_pass = {}) {
  const double start = now_s();
  while (phase.passes() < min_passes ||
         now_s() - start + phase.pass_wall_s.back() <= seconds) {
    const std::size_t slots = w.set_size();
    const std::size_t first_id = phase.records.size();
    std::vector<std::thread::id> who(slots);
    const double pass_start = now_s();
    std::vector<TrialRecord> batch = cdpf::sim::run_slots_ordered<TrialRecord>(
        slots, phase.workers, [&](std::size_t s) {
          const std::size_t cell = s / w.trials;
          SpanBuffer spans(traced, first_id + s);
          TrialRecord rec = run_timed_trial(w.cells[cell], cell, params, root_seed,
                                            s % w.trials, w.churn, spans);
          phase.spans.append(spans);
          who[s] = std::this_thread::get_id();
          return rec;
        });
    phase.pass_wall_s.push_back(now_s() - pass_start);
    for (std::size_t s = 0; s < slots; ++s) {
      phase.records.push_back(std::move(batch[s]));
      phase.worker_of.push_back(who[s]);
    }
    if (after_pass) {
      after_pass();
    }
  }
  phase.wall_s = now_s() - start;
}

// Every trial of the set is timed at its kPassPercentile-th pass (nearest
// rank, by its own wall time), and iteration j of a trial at its
// kPassPercentile-th pass of that iteration (it does the same work in every
// pass). On a shared host co-tenant load slows this code ~1.5x most of the
// time and lifts only in lulls that some runs catch and others miss, so the
// fastest pass moves with luck while the contended speed recurs in every run
// (README.md, "Why timings are p90-of-passes"). A parallel pass's trials
// overlap, so there the rate is the set size / the passes' p90 wall time.
constexpr double kPassPercentile = 90.0;

struct Timing {
  double trials_per_s = 0.0;      // trials / summed per-trial p90 seconds
  double raw_trials_per_s = 0.0;  // attempted / wall, for the report
  std::vector<double> iter_ms;    // p90 time of every (trial, iteration)
  double unit_s = 0.0;            // summed per-trial p90 seconds
};

Timing pass_timing(const Workload& w, const Phase& phase,
                   std::optional<AlgorithmKind> only = {}) {
  std::vector<std::vector<double>> totals(w.set_size());
  std::vector<std::vector<std::vector<double>>> iter(w.set_size());
  for (const TrialRecord& r : phase.records) {
    if (only && w.cells[r.cell].kind != *only) {
      continue;
    }
    const std::size_t unit = r.cell * w.trials + r.trial;
    totals[unit].push_back(r.total_s);
    iter[unit].resize(std::max(iter[unit].size(), r.iter_s.size()));
    for (std::size_t j = 0; j < r.iter_s.size(); ++j) {
      iter[unit][j].push_back(r.iter_s[j]);
    }
  }
  Timing t;
  std::size_t trials = 0;
  for (std::size_t unit = 0; unit < totals.size(); ++unit) {
    if (totals[unit].empty()) {
      continue;
    }
    ++trials;
    t.unit_s += percentile(totals[unit], kPassPercentile);
    for (const std::vector<double>& samples : iter[unit]) {
      t.iter_ms.push_back(percentile(samples, kPassPercentile) * 1e3);
    }
  }
  const double set_size = static_cast<double>(w.set_size());
  t.trials_per_s = w.parallel ? set_size / percentile(phase.pass_wall_s, kPassPercentile)
                              : static_cast<double>(trials) / t.unit_s;
  t.raw_trials_per_s = static_cast<double>(phase.records.size()) / phase.wall_s;
  return t;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
  std::string note;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T>
double ratio(T num, T den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

struct Quality {
  double rmse_m = 0.0;
  double bytes_per_iter = 0.0;
  double messages_per_iter = 0.0;
  double receptions_per_iter = 0.0;
  double kept_frac = 0.0;
  std::size_t trials = 0;
  std::size_t kept = 0;
  std::size_t iterations = 0;
};

// Outcome metrics over the trial set's first pass, so the values are
// identical in every run at a fixed seed. Comm counts cover every trial that
// ran to the end. RMSE is the geometric mean of the kept trials' RMSE: a
// lost track is counted in kept_frac instead, and per-trial RMSE is heavy
// tailed (a CPF trial can read 3 m beside a 0.6 m median), so the geometric
// mean weighs every tracker's relative change alike.
Quality quality(const Workload& w, const Phase& phase,
                std::optional<AlgorithmKind> only = {}) {
  Quality q;
  double log_rmse_sum = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t receptions = 0;
  for (std::size_t s = 0; s < w.set_size(); ++s) {
    const TrialRecord& r = phase.records[s];
    if (only && w.cells[r.cell].kind != *only) {
      continue;
    }
    ++q.trials;
    if (r.failed()) {
      continue;
    }
    bytes += r.bytes;
    messages += r.messages;
    receptions += r.receptions;
    q.iterations += r.iterations;
    if (r.kept()) {
      ++q.kept;
      log_rmse_sum += std::log(r.rmse);
    }
  }
  q.rmse_m = q.kept == 0 ? 0.0 : std::exp(log_rmse_sum / static_cast<double>(q.kept));
  q.bytes_per_iter = ratio<std::uint64_t>(bytes, q.iterations);
  q.messages_per_iter = ratio<std::uint64_t>(messages, q.iterations);
  q.receptions_per_iter = ratio<std::uint64_t>(receptions, q.iterations);
  q.kept_frac = ratio(q.kept, q.trials);
  return q;
}

std::vector<Metric> end_to_end_metrics(const Workload& w, const Phase& plain,
                                       const std::vector<double>& setup_sums,
                                       Tail& iter_tail) {
  const Quality q = quality(w, plain);
  const Timing timing = pass_timing(w, plain);
  iter_tail = tail(timing.iter_ms);
  return {
      {"trials_per_s", timing.trials_per_s, "trials/s", plain.records.size(),
       std::to_string(w.set_size()) + " trials, p90 of " +
           std::to_string(plain.passes()) + " passes, set-up included (wall-clock " +
           fmt(timing.raw_trials_per_s) + ")"},
      {"iter_p50_ms", median(timing.iter_ms), "ms", timing.iter_ms.size(),
       "median p90-of-passes iterate()+take_estimates(), all trackers pooled"},
      {"iter_tail_ms", iter_tail.value, "ms", iter_tail.samples,
       "p" + fmt(iter_tail.percentile) + " of the same samples (>=10 beyond it)"},
      {"setup_s", median(setup_sums), "s", setup_sums.size(),
       "median summed set-up of the " + std::to_string(w.set_size()) + "-trial set"},
      {"rss_peak_mb", peak_rss_mb(), "MB", 1, "peak resident set of this process"},
      {"rmse_m", q.rmse_m, "m", q.kept, "geometric mean per-trial RMSE, kept trials"},
      {"comm_bytes_per_iter", q.bytes_per_iter, "B", q.iterations,
       "total CommStats bytes / iterations"},
      {"track_kept_frac", q.kept_frac, "ratio", q.trials, "kept / attempted trials"},
  };
}

struct WorkerUse {
  double parallel_eff = 0.0;
  double imbalance = 0.0;
};

WorkerUse worker_use(const Phase& phase) {
  std::map<std::thread::id, double> busy;
  double total = 0.0;
  for (std::size_t i = 0; i < phase.records.size(); ++i) {
    busy[phase.worker_of[i]] += phase.records[i].total_s;
    total += phase.records[i].total_s;
  }
  double busiest = 0.0;
  for (const auto& [id, s] : busy) {
    busiest = std::max(busiest, s);
  }
  const auto workers = static_cast<double>(phase.workers);
  return {total / (workers * phase.wall_s), ratio(busiest * workers, total)};
}

// Layer report, in order: end-to-end seconds and the tracing overhead, each
// tracker's share, every call's self time, the routing probe, then the
// scheduler, per-tracker and wsn / tracking details.
std::vector<Metric> layer_metrics(const Workload& w, const Phase& plain,
                                  const Phase& traced, std::uint64_t root_seed) {
  const Timing untraced = pass_timing(w, plain);
  const Timing timing = pass_timing(w, traced);
  const std::size_t n = traced.records.size();
  std::vector<Metric> m = {
      {"trace.e2e_s", traced.wall_s, "s", n, "wall of the traced phase"},
      {"trace.trials_per_s", timing.trials_per_s, "trials/s", n,
       "traced, p90-of-passes times"},
      {"trace.untraced_trials_per_s", untraced.trials_per_s, "trials/s",
       plain.records.size(), "untraced half of this run, p90-of-passes times"},
      {"trace.overhead_frac", untraced.trials_per_s / timing.trials_per_s - 1.0, "ratio",
       2, "untraced / traced trials_per_s - 1"},
  };
  std::vector<Metric> details;
  for (const AlgorithmKind kind : kTrackers) {
    const std::string key = "core." + tracker_key(kind) + ".";
    const Timing mine = pass_timing(w, traced, kind);
    const Tail t = tail(mine.iter_ms);
    std::vector<double> construct_ms;
    for (const TrialRecord& r : traced.records) {
      if (w.cells[r.cell].kind == kind) {
        construct_ms.push_back(r.construct_s * 1e3);
      }
    }
    const Quality q = quality(w, plain, kind);
    m.push_back({key + "time_share", ratio(mine.unit_s, timing.unit_s), "ratio",
                 construct_ms.size(), "share of summed p90-of-passes trial seconds"});
    details.push_back({key + "iter_p50_ms", median(mine.iter_ms), "ms",
                       mine.iter_ms.size(), "median p90-of-passes iteration"});
    details.push_back(
        {key + "iter_tail_ms", t.value, "ms", t.samples, "p" + fmt(t.percentile)});
    details.push_back({key + "construct_ms", median(construct_ms), "ms",
                       construct_ms.size(), "median make_tracker()"});
    details.push_back(
        {key + "rmse_m", q.rmse_m, "m", q.kept, "geometric mean, kept trials"});
    details.push_back({key + "bytes_per_iter", q.bytes_per_iter, "B", q.iterations, ""});
    details.push_back({key + "kept_frac", q.kept_frac, "ratio", q.trials, ""});
  }

  const SpanLog::Totals totals = traced.spans.totals();
  for (std::size_t i = 0; i < kSpanNameCount; ++i) {
    m.push_back({std::string("self.") + span_name(static_cast<SpanName>(i)) + "_ms",
                 ratio(totals.self_s[i], static_cast<double>(n)) * 1e3, "ms",
                 totals.count[i], "self time per trial"});
  }

  // Routing probe: trial 0 of every density in the workload.
  ProbeStats probe;
  std::vector<double> densities;
  for (const Cell& c : w.cells) {
    if (std::find(densities.begin(), densities.end(), c.density) == densities.end()) {
      densities.push_back(c.density);
      probe_routes(c.density, root_seed, 0, w.churn, probe);
    }
  }
  const std::size_t routed = probe.routes - probe.failed;
  m.push_back({"wsn.route_us", median(probe.route_us), "us", probe.routes,
               "median route_into() to the sink"});
  m.push_back({"wsn.route_hops", ratio(probe.hops, routed), "count", routed,
               "mean hops of successful routes"});
  m.push_back({"wsn.route_fail_frac", ratio(probe.failed, probe.routes), "ratio",
               probe.routes, "failed / attempted routes"});
  m.push_back({"wsn.disk_query_us", median(probe.query_us), "us", probe.routes,
               "median active_nodes_within() at r_c"});

  const WorkerUse use = worker_use(traced);
  m.push_back({"sim.parallel_eff", use.parallel_eff, "ratio", n,
               "sum of job seconds / (workers x wall)"});
  m.push_back({"sim.worker_imbalance", use.imbalance, "ratio", traced.workers,
               "busiest worker's job seconds / mean worker's"});
  m.insert(m.end(), details.begin(), details.end());

  std::vector<double> deploy_ms;
  std::vector<double> radio_ms;
  std::vector<double> trajectory_ms;
  double churn_s = 0.0;
  std::size_t steps = 0;
  for (const TrialRecord& r : traced.records) {
    deploy_ms.push_back(r.deploy_s * 1e3);
    radio_ms.push_back(r.radio_s * 1e3);
    trajectory_ms.push_back(r.trajectory_s * 1e3);
    churn_s += r.churn_s;
    steps += r.iterations;
  }
  // The active share repeats exactly in every pass; take it from the first.
  double active_sum = 0.0;
  std::size_t first_pass_steps = 0;
  for (std::size_t s = 0; s < w.set_size(); ++s) {
    active_sum += traced.records[s].active_frac_sum;
    first_pass_steps += traced.records[s].iterations;
  }
  const Quality q = quality(w, plain);
  m.push_back({"wsn.deploy_ms", median(deploy_ms), "ms", n, "median build_network()"});
  m.push_back({"wsn.radio_ms", median(radio_ms), "ms", n, "median Radio construction"});
  m.push_back({"wsn.churn_ms", ratio(churn_s, static_cast<double>(steps)) * 1e3, "ms",
               steps, "duty cycle + TDSS per step (0 without churn)"});
  const double active_frac =
      w.churn ? ratio(active_sum, static_cast<double>(first_pass_steps)) : 1.0;
  m.push_back({"wsn.active_frac", active_frac, "ratio", first_pass_steps,
               "mean active share of nodes per step"});
  m.push_back({"wsn.messages_per_iter", q.messages_per_iter, "count", q.iterations, ""});
  m.push_back(
      {"wsn.receptions_per_iter", q.receptions_per_iter, "count", q.iterations, ""});
  m.push_back({"tracking.trajectory_ms", median(trajectory_ms), "ms", n,
               "median trajectory generation"});
  return m;
}

// ---------------------------------------------------------------------------
// Correctness gate

// Re-run trial 0 of every cell through sim::run_trial() (with the same step
// hook on churn workloads) and require the benchmark's own outcome to match
// bit for bit: RMSE bits, total bytes, estimate count. Returns the
// mismatches (empty = pass).
std::vector<std::string> correctness_gate(const Workload& w,
                                          const cdpf::sim::AlgorithmParams& params,
                                          std::uint64_t root_seed, const Phase& plain,
                                          std::size_t workers, bool perturb) {
  struct Ref {
    bool threw = false;
    double rmse = 0.0;
    std::uint64_t bytes = 0;
    std::size_t estimates = 0;
  };
  const std::vector<Ref> refs = cdpf::sim::run_slots_ordered<Ref>(
      w.cells.size(), workers, [&](std::size_t c) {
        const cdpf::sim::Scenario scenario = scenario_for(w.cells[c].density);
        cdpf::sim::HookFactory factory;
        if (w.churn) {
          factory = churn_hook_factory(root_seed, 0,
                                       replay_trajectory(scenario, root_seed, 0));
        }
        Ref ref;
        try {
          const cdpf::sim::TrialResult result = cdpf::sim::run_trial(
              scenario, w.cells[c].kind, params, root_seed, 0, factory);
          ref.rmse = result.outcome.rmse();
          ref.bytes = result.outcome.comm.total_bytes();
          ref.estimates = result.outcome.scored.size();
        } catch (const cdpf::Error&) {
          ref.threw = true;
        }
        return ref;
      });
  std::vector<std::string> mismatches;
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    Ref ref = refs[c];
    if (perturb && c == 0) {
      ref.rmse = std::nextafter(ref.rmse, 1e300);  // one ulp off
    }
    const TrialRecord& mine = plain.records[c * w.trials];  // pass 0, trial 0
    const bool same = mine.threw == ref.threw &&
                      (ref.threw || (std::bit_cast<std::uint64_t>(mine.rmse) ==
                                         std::bit_cast<std::uint64_t>(ref.rmse) &&
                                     mine.bytes == ref.bytes &&
                                     mine.estimates == ref.estimates));
    if (!same) {
      std::ostringstream m;
      m << cdpf::sim::algorithm_name(w.cells[c].kind) << "@" << w.cells[c].density
        << ": benchmark (threw " << mine.threw << ", rmse " << fmt(mine.rmse)
        << ", bytes " << mine.bytes << ", estimates " << mine.estimates
        << ") vs run_trial (threw " << ref.threw << ", rmse " << fmt(ref.rmse)
        << ", bytes " << ref.bytes << ", estimates " << ref.estimates << ")";
      mismatches.push_back(m.str());
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Report

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

std::string context_json(const Options& opt, const Workload& w, std::size_t workers,
                         std::size_t passes, const Tail& iter_tail) {
  const HostInfo host = host_info();
  std::ostringstream ctx;
  ctx << "{\"cpu_model\":\"" << json_escape(host.cpu_model)
      << "\",\"nproc\":" << host.logical_cores << ",\"compiler\":\""
      << json_escape(host.compiler) << "\",\"build_type\":\"" << host.build_type
      << "\",\"cxx_flags\":\"" << json_escape(host.cxx_flags)
      << "\",\"cdpf_tracing\":" << (host.cdpf_tracing ? "true" : "false")
      << ",\"revision\":\"" << json_escape(opt.revision) << "\",\"workload\":\""
      << w.name << "\",\"seed\":" << opt.seed << ",\"seconds\":" << fmt(opt.seconds)
      << ",\"workers\":" << workers << ",\"passes\":" << passes
      << ",\"trials_per_cell\":" << w.trials
      << ",\"iter_tail_percentile\":" << fmt(iter_tail.percentile)
      << ",\"host_calibration_ms\":" << fmt(host_calibration_ms()) << "}";
  return ctx.str();
}

void print_metrics(const std::string& title, const std::vector<Metric>& metrics) {
  std::cout << title << ":\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << fmt(m.value) << " " << m.unit
              << "  (n=" << m.samples << (m.note.empty() ? "" : "; " + m.note) << ")\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  std::vector<Workload> all = workloads();
  const auto found = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == opt.workload;
  });
  if (found == all.end()) {
    std::string names;
    for (const Workload& w : all) {
      names += (names.empty() ? "" : ", ") + w.name;
    }
    usage_error("unknown workload '" + opt.workload + "' (known: " + names + ")");
  }
  Workload w = *found;
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers =
      opt.workers > 0 ? std::min(opt.workers, nproc) : (w.parallel ? nproc : 1);
  if (opt.smoke) {
    w.trials = 1;
  }
  const std::size_t setup_reps = opt.smoke ? 1 : 3;
  const std::size_t min_passes = opt.smoke ? 1 : 2;
  // The library sees only the deployments and trajectories this seed makes.
  const std::uint64_t root_seed = cdpf::rng::derive_stream_seed(opt.seed, 0x9e7f);
  const cdpf::sim::AlgorithmParams params;

  try {
    // 1. Set-up: the whole trial set, set up (deploy, radio, trajectory,
    //    make_tracker) setup_reps times before the measured phase and once
    //    more after each of its passes, so the batches sample the whole run;
    //    setup_s is the median batch sum.
    std::vector<double> setup_sums;
    auto setup_batch = [&] {
      double sum = 0.0;
      for (std::size_t s = 0; s < w.set_size(); ++s) {
        sum += time_setup(w.cells[s / w.trials], params, root_seed, s % w.trials);
      }
      setup_sums.push_back(sum);
    };
    for (std::size_t rep = 0; rep < setup_reps; ++rep) {
      setup_batch();
    }

    // 2. Measured phase(s). The traced run spends half its time untraced
    //    (the overhead reference) and half traced.
    const double phase_s =
        opt.smoke ? 0.0 : (opt.trace ? opt.seconds / 2.0 : opt.seconds);
    Phase plain;
    plain.workers = workers;
    run_phase(w, params, root_seed, phase_s, min_passes, false, plain, setup_batch);
    Phase traced;
    traced.workers = workers;
    if (opt.trace) {
      run_phase(w, params, root_seed, phase_s, min_passes, true, traced);
    }

    // 3. Correctness gate (outside the timed phases).
    const std::vector<std::string> mismatches =
        correctness_gate(w, params, root_seed, plain, nproc, opt.perturb_reference);
    if (!mismatches.empty()) {
      for (const std::string& m : mismatches) {
        std::cerr << "correctness gate: " << m << "\n";
      }
      std::cerr << "correctness gate FAILED: no metrics reported\n";
      return 3;
    }

    // 4. Report; the last line is the JSON result.
    Tail iter_tail;
    const std::vector<Metric> e2e = end_to_end_metrics(w, plain, setup_sums, iter_tail);
    const std::string ctx = context_json(opt, w, workers, plain.passes(), iter_tail);
    std::cout << "context " << ctx << "\n";
    print_metrics("end-to-end (" + w.name + ", seed " + std::to_string(opt.seed) + ")",
                  e2e);
    std::vector<Metric> layer;
    if (opt.trace) {
      layer = layer_metrics(w, plain, traced, root_seed);
      print_metrics("layer report (" + w.name + ", traced)", layer);
    }
    const std::vector<Metric>& emitted = opt.trace ? layer : e2e;
    std::ostringstream metrics_json;
    std::ostringstream samples_json;
    for (std::size_t i = 0; i < emitted.size(); ++i) {
      const char* sep = i == 0 ? "" : ", ";
      metrics_json << sep << "\"" << emitted[i].name << "\": {\"value\": "
                   << fmt(emitted[i].value) << ", \"unit\": \"" << emitted[i].unit
                   << "\"}";
      samples_json << sep << "\"" << emitted[i].name << "\": " << emitted[i].samples;
    }
    if (!opt.out_dir.empty()) {
      const std::string stem = opt.out_dir + "/" + w.name + "-seed" +
                               std::to_string(opt.seed) + (opt.trace ? "-trace" : "");
      std::filesystem::create_directories(opt.out_dir);
      std::ofstream(stem + ".report.json")
          << "{\"context\": " << ctx << ", \"samples\": {" << samples_json.str()
          << "}, \"metrics\": {" << metrics_json.str() << "}}\n";
      if (opt.trace) {
        traced.spans.write_chrome_json(stem + ".spans.json");
      }
    }
    const Phase& measured = opt.trace ? traced : plain;
    std::size_t failed = 0;
    for (const TrialRecord& r : measured.records) {
      if (r.failed()) {
        ++failed;
        std::cout << "failed trial: " << cdpf::sim::algorithm_name(w.cells[r.cell].kind)
                  << "@" << w.cells[r.cell].density << " trial " << r.trial << ": "
                  << (r.threw ? r.error : "no estimate") << "\n";
      }
    }
    std::cout << "{\"correct\": true, \"attempted\": " << measured.records.size()
              << ", \"failed\": " << failed << ", \"metrics\": {" << metrics_json.str()
              << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
