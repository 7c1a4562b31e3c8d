// Benchmark program for the RPCC simulator. One process runs one repetition
// of one workload and prints one JSON object on stdout; perfbench/run.py
// spawns the processes, repeats them and aggregates the results.
//
//   perfbench untraced <protocol> key=value...
//   perfbench traced <protocol> key=value...
//   perfbench selftest
//
// The key=value arguments are scenario_params overrides (the workload
// definition plus seed=). Everything here measures the program from the
// outside, through public calls and counters only:
//
// untraced  Times the warm-up (scenario::run_until(warmup)) and the
//           measured era (scenario::run()) separately, profiling off. Set-up
//           time is the fastest of many timed builds made before and after.
// traced    Folds the warm-up into the run (warmup=0, sim_time=warmup +
//           sim_time: the same event sequence), turns on the profile=true
//           hooks and drives simulator::step() itself. Each step's host time
//           is charged to exactly one class, by the first public counter in
//           this precedence that the step moved:
//             invariant sweep > query issued > update issued >
//             routing-kind rx > app-kind rx > tx > other.
//           After the run it times radio::neighbors(u) and
//           network::position(u) over all nodes.
// selftest  Checks the step classification and the split warm-up timing on
//           tiny scenarios; exits 1 on any failure.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/host_mem.hpp"
#include "scenario/scenario.hpp"
#include "util/config.hpp"

namespace {

using manet::scenario;
using manet::scenario_params;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Peak resident set of this process image in bytes. Linux's VmHWM belongs
/// to the current address space; getrusage's ru_maxrss (what
/// manet::peak_rss_bytes reads) also carries the parent's peak across exec,
/// so a large launcher would inflate it. Falls back to it off Linux.
std::uint64_t peak_rss() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    unsigned long long kib = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %llu kB", &kib) == 1) return kib * 1024;
  }
  return manet::peak_rss_bytes();
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Flat JSON object writer: numbers, strings and nested raw JSON.
class json_object {
 public:
  void num(const std::string& k, double v) {
    key(k);
    if (!std::isfinite(v)) {
      body_ += "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    body_ += buf;
  }
  void num(const std::string& k, std::uint64_t v) {
    key(k);
    body_ += std::to_string(v);
  }
  void str(const std::string& k, const std::string& v) {
    key(k);
    body_ += '"' + v + '"';
  }
  void raw(const std::string& k, const std::string& json) {
    key(k);
    body_ += json;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"' + k + "\": ";
  }
  std::string body_;
};

scenario_params params_from(const std::vector<std::string>& assignments) {
  manet::config cfg;
  for (const std::string& a : assignments) {
    if (!cfg.parse_assignment(a)) {
      throw std::runtime_error("perfbench: expected key=value, got '" + a + "'");
    }
  }
  return scenario_params::from_config(cfg);
}

// ---------------------------------------------------------------------------
// Step classification

enum class step_class { sweep, query, update, routing_rx, app_rx, tx, other };
constexpr std::size_t n_step_classes = 7;

std::size_t idx(step_class c) { return static_cast<std::size_t>(c); }

/// The public counters a step can move.
struct counters {
  std::uint64_t sweeps = 0;
  std::uint64_t queries = 0;
  std::uint64_t updates = 0;
  std::uint64_t routing_rx = 0;
  std::uint64_t app_rx = 0;
  std::uint64_t tx = 0;
};

/// Reads `counters` from a scenario. Frame counts are summed over the kinds
/// with a registered name (a few dozen, not the meter's dense 0..max range);
/// drive() callers check the sums against the meter's own totals.
class counter_probe {
 public:
  explicit counter_probe(scenario& sc) : sc_(sc) {
    const manet::traffic_meter& m = sc.net().meter();
    for (unsigned k = 0; k <= 0xffff; ++k) {
      const auto kind = static_cast<manet::packet_kind>(k);
      if (m.kind_cname(kind) != nullptr) kinds_.push_back(kind);
    }
  }

  counters read() const {
    counters c;
    if (const manet::invariant_checker* ic = sc_.invariants()) c.sweeps = ic->sweeps();
    c.queries = sc_.qlog().issued();
    c.updates = sc_.workload().updates_issued();
    const manet::traffic_meter& m = sc_.net().meter();
    for (const manet::packet_kind k : kinds_) {
      const manet::kind_counters& kc = m.counters(k);
      (manet::is_routing_kind(k) ? c.routing_rx : c.app_rx) += kc.rx_frames;
      c.tx += kc.tx_frames;
    }
    return c;
  }

 private:
  scenario& sc_;
  std::vector<manet::packet_kind> kinds_;
};

step_class classify(const counters& before, const counters& after) {
  if (after.sweeps != before.sweeps) return step_class::sweep;
  if (after.queries != before.queries) return step_class::query;
  if (after.updates != before.updates) return step_class::update;
  if (after.routing_rx != before.routing_rx) return step_class::routing_rx;
  if (after.app_rx != before.app_rx) return step_class::app_rx;
  if (after.tx != before.tx) return step_class::tx;
  return step_class::other;
}

struct class_totals {
  std::uint64_t events = 0;
  std::uint64_t ns = 0;
  std::uint64_t rx = 0;  ///< frames received during these steps
};

struct step_trace {
  std::array<class_totals, n_step_classes> by_class{};
  const class_totals& operator[](step_class c) const { return by_class[idx(c)]; }

  std::uint64_t events() const {
    std::uint64_t n = 0;
    for (const class_totals& c : by_class) n += c.events;
    return n;
  }
  std::uint64_t ns() const {
    std::uint64_t n = 0;
    for (const class_totals& c : by_class) n += c.ns;
    return n;
  }
  std::uint64_t rx() const {
    std::uint64_t n = 0;
    for (const class_totals& c : by_class) n += c.rx;
    return n;
  }
};

/// Starts `sc` without executing any event (run_until a time before zero),
/// then steps it through every event at or before `end` — the loop of
/// simulator::run_until — timing and classifying each step.
step_trace drive(scenario& sc, manet::sim_time end) {
  sc.run_until(-1.0);
  manet::simulator& sim = sc.sim();
  const counter_probe probe(sc);
  step_trace tr;
  counters before = probe.read();
  while (!sim.queue().empty() && sim.queue().next_time() <= end) {
    const std::uint64_t t0 = now_ns();
    sim.step();
    const std::uint64_t t1 = now_ns();
    const counters after = probe.read();
    class_totals& c = tr.by_class[idx(classify(before, after))];
    ++c.events;
    c.ns += t1 - t0;
    c.rx += (after.routing_rx - before.routing_rx) + (after.app_rx - before.app_rx);
    before = after;
  }
  // Settle the clock exactly as run_until does; no event is left to run.
  sc.run_until(end);
  return tr;
}

/// The traced configuration of a workload: warm-up folded into the run.
scenario_params folded(scenario_params p) {
  p.sim_time += p.warmup;
  p.warmup = 0;
  return p;
}

/// Checks that a traced run's class counts agree with the public counters.
/// Returns the failures, one line each.
std::vector<std::string> trace_mismatches(scenario& sc, const step_trace& tr) {
  std::vector<std::string> bad;
  auto expect = [&bad](const char* what, std::uint64_t got, std::uint64_t want) {
    if (got != want) {
      bad.push_back(std::string(what) + ": " + std::to_string(got) +
                    " != " + std::to_string(want));
    }
  };
  expect("classified steps vs simulator::executed_events", tr.events(),
         sc.sim().executed_events());
  expect("rx over steps vs traffic_meter::total_rx_frames", tr.rx(),
         sc.net().meter().total_rx_frames());
  expect("query steps vs query_log::issued", tr[step_class::query].events,
         sc.qlog().issued());
  expect("update steps vs workload_generator::updates_issued",
         tr[step_class::update].events, sc.workload().updates_issued());
  const manet::invariant_checker* ic = sc.invariants();
  expect("sweep steps vs invariant_checker::sweeps", tr[step_class::sweep].events,
         ic != nullptr ? ic->sweeps() : 0);
  return bad;
}

// ---------------------------------------------------------------------------
// Profiler sections

struct section_time {
  std::uint64_t calls = 0;
  double total_s = 0;
};

/// Outermost protocol_handler nodes of the profile tree, by packet-kind
/// name. The profiler exposes its per-kind children only through report(),
/// so this parses that text: one node per line, two spaces of indent per
/// tree level after a two-space margin, then "label calls=N total=Xms".
std::map<std::string, section_time> handler_times(const manet::profiler& prof) {
  std::map<std::string, section_time> out;
  std::istringstream in(prof.report());
  std::string line;
  std::vector<std::string> path;  // labels of the current line's ancestors
  std::getline(in, line);         // header
  while (std::getline(in, line)) {
    const std::size_t first = line.find_first_not_of(' ');
    if (first == std::string::npos || first < 2) continue;
    const std::size_t depth = (first - 2) / 2;
    const std::size_t end = line.find(' ', first);
    const std::string label = line.substr(first, end - first);
    path.resize(std::min(path.size(), depth));
    const bool nested = std::any_of(path.begin(), path.end(), [](const std::string& l) {
      return l.rfind("protocol_handler", 0) == 0;
    });
    path.push_back(label);
    if (nested || label.rfind("protocol_handler[", 0) != 0) continue;
    unsigned long long calls = 0;
    double total_ms = 0;
    const std::size_t at = line.find("calls=");
    if (at == std::string::npos ||
        std::sscanf(line.c_str() + at, "calls=%llu total=%lfms", &calls, &total_ms) != 2) {
      throw std::runtime_error("perfbench: unparsable profile line: " + line);
    }
    const std::string kind = label.substr(17, label.size() - 18);
    out[kind].calls += calls;
    out[kind].total_s += total_ms / 1e3;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Modes

// Set-up sampling. On a shared host the same build runs up to 1.5x slower
// while other tenants are busy, in phases of one to ten seconds, and the
// first build of a window runs cold (at n=100000 it takes 1.5x as long as
// the next). So the scenario is built again and again in two windows, one
// before the warm-up and one after the measured era, each lasting
// setup_window_s host time and at least setup_window_builds builds, and
// set-up time is the fastest build. Other tenants only ever slow a build
// down, so the fastest build is the steadiest estimate of the constructor's
// own cost.
constexpr double setup_window_s = 0.25;
constexpr int setup_window_builds = 2;

class setup_sampler {
 public:
  setup_sampler(const std::string& protocol, const scenario_params& p)
      : protocol_(protocol), p_(p) {}

  /// Builds for one window; returns the last build.
  std::unique_ptr<scenario> window() {
    std::unique_ptr<scenario> sc;
    const std::uint64_t start = now_ns();
    for (int i = 0; i < setup_window_builds || seconds_since(start) < setup_window_s; ++i) {
      sc.reset();  // the previous copy is freed before the next build is timed
      const std::uint64_t t0 = now_ns();
      sc = std::make_unique<scenario>(p_, protocol_);
      const double s = seconds_since(t0);
      fastest_s_ = builds_ == 0 ? s : std::min(fastest_s_, s);
      ++builds_;
    }
    return sc;
  }

  double fastest_s() const { return fastest_s_; }
  std::uint64_t builds() const { return builds_; }

 private:
  const std::string& protocol_;
  const scenario_params& p_;
  double fastest_s_ = 0;
  std::uint64_t builds_ = 0;
};

int run_untraced(const std::string& protocol, const scenario_params& p) {
  setup_sampler setup(protocol, p);
  std::unique_ptr<scenario> sc = setup.window();
  const std::uint64_t t0 = now_ns();
  sc->run_until(p.warmup);
  const double warmup_s = seconds_since(t0);
  const std::uint64_t t1 = now_ns();
  const manet::run_result r = sc->run();
  const double run_s = seconds_since(t1);

  json_object j;
  j.str("mode", "untraced");
  j.num("warmup_s", warmup_s);
  j.num("run_s", run_s);
  j.num("sim_span_s", r.sim_time);
  j.num("events", sc->sim().executed_events());
  j.num("rx_frames", sc->net().meter().total_rx_frames());
  j.num("peak_rss_bytes", peak_rss());
  j.str("digest", hex64(manet::run_result_digest(r)));
  j.num("invariant_violations", r.invariant_violations);
  j.num("avg_relay_peers", r.avg_relay_peers);
  j.num("msgs_per_s", r.messages_per_second());
  j.num("latency_mean_s", r.avg_query_latency_s);
  j.num("latency_p95_s", r.p95_query_latency_s);
  j.num("queries_issued", r.queries_issued);
  j.num("queries_answered", r.queries_answered);
  j.num("stale_answers", r.stale_answers);
  sc.reset();  // freed first, so the second window leaves the peak RSS alone
  setup.window();
  j.num("setup_s", setup.fastest_s());
  j.num("setup_builds", setup.builds());
  std::printf("%s\n", j.text().c_str());
  return 0;
}

int run_traced(const std::string& protocol, scenario_params p) {
  p = folded(p);
  p.profile = true;
  scenario sc(p, protocol);
  const std::uint64_t t0 = now_ns();
  const step_trace tr = drive(sc, p.sim_time);
  const double wall_s = seconds_since(t0);

  // Probes: one call per node, after the run.
  const std::size_t n = sc.net().size();
  std::size_t sink = 0;
  const std::uint64_t n0 = now_ns();
  for (manet::node_id u = 0; u < n; ++u) sink += sc.net().air().neighbors(u).size();
  const double neighbors_ns = ratio(static_cast<double>(now_ns() - n0), static_cast<double>(n));
  double xsum = 0;
  const std::uint64_t p0 = now_ns();
  for (manet::node_id u = 0; u < n; ++u) xsum += sc.net().position(u).x;
  const double position_ns = ratio(static_cast<double>(now_ns() - p0), static_cast<double>(n));

  const manet::profiler& prof = *sc.profile();
  const std::map<std::string, section_time> handlers = handler_times(prof);
  section_time handler_total;
  for (const auto& [kind, t] : handlers) {
    handler_total.calls += t.calls;
    handler_total.total_s += t.total_s;
  }
  std::map<std::string, double> reg;
  for (const auto& [name, v] : sc.metrics().snapshot()) reg[name] = v;
  auto reg_value = [&reg](const std::string& name) {
    const auto it = reg.find(name);
    return it == reg.end() ? 0.0 : it->second;
  };
  const manet::traffic_meter& meter = sc.net().meter();
  const auto secs = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e9; };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const double step_s = secs(tr.ns());
  const double dispatch_s = secs(prof.total_ns(manet::profiler::section::event_dispatch));

  json_object m;
  m.num("sim.events", count(tr.events()));
  m.num("sim.kernel_s", step_s - dispatch_s);
  m.num("sim.other_s", secs(tr[step_class::other].ns));
  m.num("sim.other_events", count(tr[step_class::other].events));
  m.num("net.on_air_s", secs(tr[step_class::tx].ns));
  m.num("net.on_air_events", count(tr[step_class::tx].events));
  m.num("net.neighbor_query_s",
        secs(prof.total_ns(manet::profiler::section::neighbor_query)));
  m.num("net.neighbor_query_calls",
        count(prof.calls(manet::profiler::section::neighbor_query)));
  m.num("net.neighbors_call_ns", neighbors_ns);
  m.num("net.deliver_s", secs(tr[step_class::app_rx].ns));
  m.num("net.deliver_events", count(tr[step_class::app_rx].events));
  m.num("net.tx_frames", count(meter.total_tx_frames()));
  m.num("net.rx_frames", count(meter.total_rx_frames()));
  m.num("net.rx_per_tx", ratio(count(meter.total_rx_frames()), count(meter.total_tx_frames())));
  m.num("net.drops", count(meter.total_drops()));
  m.num("net.payload_pool.high_water", reg_value("net.payload_pool.high_water"));
  m.num("net.payload_pool.heap_fallbacks", reg_value("net.payload_pool.heap_fallbacks"));
  m.num("grid.rebuilds", reg_value("grid.rebuilds"));
  m.num("grid.delta_passes", reg_value("grid.delta_passes"));
  m.num("grid.cell_moves", reg_value("grid.cell_moves"));
  m.num("mobility.position_ns", position_ns);
  m.num("routing.deliver_s", secs(tr[step_class::routing_rx].ns));
  m.num("routing.deliver_events", count(tr[step_class::routing_rx].events));
  m.num("routing.tx_frames", reg_value("route.tx_frames"));
  m.num("routing.discoveries", reg_value("route.discoveries"));
  m.num("routing.materialized_states", reg_value("route.materialized_states"));
  m.num("consistency.handler_s", handler_total.total_s);
  m.num("consistency.handler_calls", count(handler_total.calls));
  for (const char* kind : {"POLL", "POLL_ACK_A", "POLL_ACK_B", "INVALIDATION", "UPDATE",
                           "APPLY", "APPLY_ACK", "GET_NEW", "SEND_NEW", "CANCEL"}) {
    const auto it = handlers.find(kind);
    m.num(std::string("consistency.handler_s.") + kind,
          it == handlers.end() ? 0.0 : it->second.total_s);
  }
  const double polls = reg_value("rpcc.polls_sent");
  m.num("rpcc.polls_sent", polls);
  m.num("rpcc.promotions", reg_value("rpcc.promotions"));
  m.num("rpcc.avg_relay_peers", reg_value("rpcc.avg_relay_peers"));
  m.num("rpcc.unvalidated_answers", reg_value("rpcc.unvalidated_answers"));
  m.num("rpcc.validated_per_poll",
        ratio(count(sc.qlog().stats(manet::consistency_level::strong).validated), polls));
  m.num("cache.query_s", secs(tr[step_class::query].ns));
  m.num("cache.queries", count(tr[step_class::query].events));
  m.num("cache.update_s", secs(tr[step_class::update].ns));
  m.num("cache.updates", count(tr[step_class::update].events));
  m.num("cache.evictions", reg_value("cache.evictions"));
  m.num("fault.invariant_sweep_s", secs(tr[step_class::sweep].ns));
  m.num("fault.invariant_sweeps", count(tr[step_class::sweep].events));
  m.num("trace.unattributed_share", ratio(secs(tr[step_class::other].ns), step_s));

  std::string mismatches = "[";
  for (const std::string& s : trace_mismatches(sc, tr)) {
    mismatches += (mismatches.size() > 1 ? ", \"" : "\"") + s + '"';
  }
  mismatches += ']';

  json_object j;
  j.str("mode", "traced");
  j.num("wall_s", wall_s);
  j.num("step_s", step_s);
  j.num("events", sc.sim().executed_events());
  j.num("probe_sink", static_cast<double>(sink) + xsum);
  j.raw("mismatches", mismatches);
  j.raw("metrics", m.text());
  std::printf("%s\n", j.text().c_str());
  return 0;
}

/// Tiny scenarios (n=20, minutes of simulated time) for the benchmark's own
/// tests: one on the SC pull path, one on the WC write path with routing.
std::vector<std::vector<std::string>> selftest_configs() {
  const std::vector<std::string> base = {
      "n_peers=20", "area_width=700", "area_height=700", "warmup=300", "sim_time=600",
      "coeff_window=120", "seed=3"};
  std::vector<std::vector<std::string>> out = {base, base};
  out[1].insert(out[1].end(), {"mix=WC", "i_update=20"});
  return out;
}

int run_selftest() {
  int failures = 0;
  auto check = [&failures](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (const std::vector<std::string>& cfg : selftest_configs()) {
    const scenario_params p = params_from(cfg);
    std::string name = "n=20";
    for (std::size_t i = 1; i < cfg.size(); ++i) name += " " + cfg[i];

    // Split warm-up timing (run_until(warmup), then run()) vs a plain run().
    scenario plain(p, "rpcc");
    const manet::run_result r_plain = plain.run();
    scenario split(p, "rpcc");
    split.run_until(p.warmup);
    const manet::run_result r_split = split.run();
    check(manet::run_result_digest(r_plain) == manet::run_result_digest(r_split),
          name + ": split warm-up digest " + hex64(manet::run_result_digest(r_split)) +
              " == plain run() digest " + hex64(manet::run_result_digest(r_plain)));

    // Traced run: same events, and every class count matches its counter.
    scenario_params tp = folded(p);
    tp.profile = true;
    scenario traced(tp, "rpcc");
    const step_trace tr = drive(traced, tp.sim_time);
    check(traced.sim().executed_events() == plain.sim().executed_events(),
          name + ": traced events " + std::to_string(traced.sim().executed_events()) +
              " == untraced events " + std::to_string(plain.sim().executed_events()));
    for (const std::string& bad : trace_mismatches(traced, tr)) check(false, name + ": " + bad);
    check(tr[step_class::query].events > 0 && tr[step_class::sweep].events > 0 &&
              tr[step_class::app_rx].events > 0 && tr[step_class::tx].events > 0,
          name + ": query, sweep, delivery and tx classes all occur");
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench untraced <protocol> key=value...\n"
               "       perfbench traced <protocol> key=value...\n"
               "       perfbench selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string mode = argv[1];
    if (mode == "selftest") return run_selftest();
    if (argc < 3 || (mode != "untraced" && mode != "traced")) return usage();
    const std::string protocol = argv[2];
    const scenario_params p = params_from(std::vector<std::string>(argv + 3, argv + argc));
    if (mode == "traced") return run_traced(protocol, p);
    return run_untraced(protocol, p);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
