// Benchmark driver: runs one named workload of discovery executions for a
// fixed time, checks every output, and prints its metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans PATH]
//
// One operation is one discovery execution, timed from the first wake (or
// node_host::start) to the program's checker verdict.  A workload is a
// fixed list of operations generated from --seed; the driver runs the list
// again and again (a round each time), one operation at a time from one
// thread, until the next round would not end within --seconds.  Timing
// metrics are medians over rounds or operations, so they do not depend on
// how many rounds fit.
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": N, "failed": M, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, derived from the spans the run recorded (written to
// --spans when given).  See README.md for the metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/parse.h"
#include "core/checker.h"
#include "core/node.h"
#include "core/runner.h"
#include "graph/digraph.h"
#include "graph/topology.h"
#include "net/node_host.h"
#include "sim/message.h"
#include "sim/network.h"
#include "sim/reliable_link.h"
#include "sim/scheduler.h"
#include "spans.h"
#include "verifier.h"

namespace perfbench {
namespace {

using namespace asyncrd;

// --- workloads ------------------------------------------------------------

enum class kind { large_n, lossy_small, monitored, svc_loopback };

struct op_spec {
  core::variant algo;
  std::size_t n;
  std::size_t extra_edges;  ///< random_weakly_connected's density knob
  std::uint64_t graph_seed;
  std::uint64_t delay_seed;  ///< 0 selects unit delays
  std::uint64_t fault_seed;  ///< lossy_small only
};

struct workload {
  kind k;
  std::vector<op_spec> ops;
};

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr core::variant variants[] = {core::variant::generic,
                                      core::variant::bounded,
                                      core::variant::adhoc};

// Sizes and list lengths are chosen so that one round is long enough to
// time steadily and short enough for several rounds (or, for large_n, one
// round plus set-up repeats) to fit in a run; README.md gives the reasons.
std::optional<workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  std::uint64_t state = seed;
  workload w{};
  std::size_t n = 0, ops = 0;
  if (name == "large_n") {
    w.k = kind::large_n;
    n = 50'000;
    ops = 3;
  } else if (name == "lossy_small") {
    w.k = kind::lossy_small;
    n = 2'000;
    ops = 12;
  } else if (name == "monitored") {
    w.k = kind::monitored;
    n = 256;
    ops = 6;
  } else if (name == "svc_loopback") {
    w.k = kind::svc_loopback;
    n = 1'000;
    ops = 3;
  } else {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < ops; ++i) {
    op_spec op{};
    op.algo = variants[i % 3];
    op.n = n;
    // 4n extra edges, not n: on random_weakly_connected(n, n) a fault in
    // the program leaves nodes undiscovered on a seed-dependent share of
    // graphs (README.md, "Known fault"), which would make the failed count
    // differ from seed to seed.  No 4n graph failed in the checks there.
    op.extra_edges = 4 * n;
    op.graph_seed = splitmix(state);
    op.delay_seed = splitmix(state) | 1;
    op.fault_seed = splitmix(state);
    // large_n runs generic under unit delays (the canonical schedule the
    // per-event cost figures use); every other execution is randomized.
    if (w.k == kind::large_n && op.algo == core::variant::generic)
      op.delay_seed = 0;
    w.ops.push_back(op);
  }
  // The fault above, pinned: a 16-node graph on which generic discovery
  // under unit delays always quiesces with four nodes stuck passive and
  // the leader knowing 8 of 16 ids.  It does not depend on --seed, so it
  // fails once in every round and the failed share is the same in every
  // run; it disappears from `failed` when the fault is mended.
  if (w.k == kind::monitored)
    w.ops.push_back({core::variant::generic, 16, 16, 60'255'672, 0, 0});
  return w;
}

// --- one operation --------------------------------------------------------

/// Everything one operation measured.  Counters are raw; per-node figures
/// are formed when the run's metrics are computed.
struct op_result {
  core::variant algo{};
  std::size_t n = 0;
  bool failed = false;
  std::string why;  ///< failure or verification message
  bool verified = true;
  double setup_s = 0, verdict_s = 0, loop_s = 0, unarmed_loop_s = 0, poll_s = 0;
  std::uint64_t events = 0, messages = 0;
  std::int64_t pool_peak_bytes = 0;
  // sim ARQ / wire (lossy_small)
  std::uint64_t transmissions = 0, retransmits = 0, acks = 0;
  std::uint64_t app_deliveries = 0, wire_bytes = 0;
  // service (svc_loopback)
  std::uint64_t datagrams = 0, first_sends = 0, polls = 0;
};

constexpr double svc_timeout_s = 10.0;

std::vector<std::pair<node_id, node_id>> edges_of(const graph::digraph& g) {
  std::vector<std::pair<node_id, node_id>> out;
  out.reserve(g.edge_count());
  for (const node_id u : g.nodes())
    for (const node_id v : g.out(u)) out.emplace_back(u, v);
  return out;
}

node_view view_of(const core::node& nd) {
  node_view v;
  v.id = nd.id();
  v.status = nd.status();
  v.next = nd.next();
  if (is_leader(v.status)) v.done.assign(nd.done().begin(), nd.done().end());
  return v;
}

type_counts counts_of(const sim::stats& st) {
  type_counts c;
  c.query = st.messages_of("query");
  c.query_reply = st.messages_of("query_reply");
  c.merge_accept = st.messages_of("merge_accept");
  c.merge_fail = st.messages_of("merge_fail");
  c.info = st.messages_of("info");
  c.conquer = st.messages_of("conquer");
  c.more_done = st.messages_of("more_done");
  return c;
}

type_counts& operator+=(type_counts& a, const type_counts& b) {
  a.query += b.query;
  a.query_reply += b.query_reply;
  a.merge_accept += b.merge_accept;
  a.merge_fail += b.merge_fail;
  a.info += b.info;
  a.conquer += b.conquer;
  a.more_done += b.more_done;
  return a;
}

/// The benchmark's verdict on a finished operation the program accepted:
/// its own components, final-state properties and (reliable wire only)
/// message caps.
void verify(op_result& r, const graph::digraph& g,
            const std::vector<std::vector<node_id>>& program_comps,
            std::vector<node_view> views, const type_counts* counts) {
  const auto comps = components_of(g.nodes(), edges_of(g));
  std::vector<std::string> bad =
      verify_final_state(comps, r.algo, std::move(views));
  if (comps != program_comps)
    bad.push_back("digraph::weak_components disagrees with the union-find");
  if (counts != nullptr)
    for (auto& s : verify_message_caps(*counts, r.n, r.algo))
      bad.push_back(std::move(s));
  if (!bad.empty()) {
    r.verified = false;
    r.why = bad.front();
  }
}

std::unique_ptr<sim::scheduler> make_scheduler(const op_spec& op) {
  if (op.delay_seed == 0) return std::make_unique<sim::unit_delay_scheduler>();
  return std::make_unique<sim::random_delay_scheduler>(op.delay_seed);
}

/// Event cap per operation: far above what any correct execution needs
/// (README.md gives the observed events per node), low enough that a
/// livelock fails the operation instead of outlasting the run.
std::uint64_t event_cap(std::size_t n) { return 2'000 * static_cast<std::uint64_t>(n); }

op_result run_sim_op(kind k, const op_spec& op, tracer& tr, bool setup_only) {
  op_result r;
  r.algo = op.algo;
  r.n = op.n;
  const bool lossy = k == kind::lossy_small;
  const bool monitored = k == kind::monitored;
  scope op_scope(tr, "op");

  graph::digraph g;
  std::vector<std::vector<node_id>> comps;
  const auto sched = make_scheduler(op);
  core::config cfg;
  cfg.algo = op.algo;
  // Declared before the run so the network never outlives its observers.
  std::optional<core::liveness_monitor> live;
  std::optional<core::structure_monitor> structure;
  std::unique_ptr<core::discovery_run> run;
  {
    scope s(tr, "setup", &r.setup_s);
    {
      scope s2(tr, "graph.generate");
      g = graph::random_weakly_connected(op.n, op.extra_edges, op.graph_seed);
    }
    {
      scope s2(tr, "graph.components");
      comps = g.weak_components();
    }
    scope s2(tr, "core.construct");
    run = std::make_unique<core::discovery_run>(g, cfg, *sched);
    if (lossy) {
      sim::fault_plan plan;
      plan.seed = op.fault_seed;
      plan.drop = 0.05;
      plan.duplicate = 0.05;
      run->enable_chaos(plan);
      run->enable_wire();
    }
    if (monitored) {
      live.emplace(*run, comps);
      structure.emplace(*run, &*live);
      run->net().set_observer(&*structure);
    }
  }
  if (setup_only) return r;

  sim::pool_detail::reset_peak_bytes();
  sim::run_result res;
  core::check_report rep;
  std::vector<core::bound_row> rows;
  {
    scope v(tr, "verdict", &r.verdict_s);
    {
      scope s(tr, "sim.wake");
      run->wake_all();
    }
    {
      scope s(tr, "sim.loop", &r.loop_s);
      res = run->run(event_cap(op.n));
    }
    scope s(tr, "core.check");
    rep = core::check_final_state(*run, comps);
    if (!lossy)
      rows = core::check_message_bounds(run->statistics(), op.n, op.algo);
  }

  const sim::network& net = run->net();
  r.events = res.events_processed;
  r.messages = run->statistics().total_messages();
  r.pool_peak_bytes = sim::pool_detail::stats().peak_bytes;
  r.app_deliveries = net.app_deliveries();
  r.wire_bytes = net.wire_bytes_sent();
  if (const sim::reliable_link_layer* rl = run->reliable_links()) {
    const sim::reliable_link_stats st = rl->stats();
    r.transmissions = net.faults().transmissions;
    r.retransmits = st.retransmits;
    r.acks = st.acks_sent;
  }

  if (!res.completed) {
    r.failed = true;
    r.why = "event cap reached";
  } else if (!rep.ok()) {
    r.failed = true;
    r.why = "check_final_state: " + rep.violations.front();
  } else if (monitored && !live->ok()) {
    r.failed = true;
    r.why = "liveness_monitor: " + live->violations().front();
  } else if (monitored && !structure->ok()) {
    r.failed = true;
    r.why = "structure_monitor: " + structure->violations().front();
  }
  for (const core::bound_row& row : rows)
    if (!r.failed && !row.ok()) {
      r.failed = true;
      r.why = "check_message_bounds: " + row.name;
    }
  if (!r.failed) {
    scope s(tr, "bench.verify");
    std::vector<node_view> views;
    views.reserve(op.n);
    for (const node_id v : run->ids()) views.push_back(view_of(run->at(v)));
    const type_counts counts = counts_of(run->statistics());
    verify(r, g, comps, std::move(views), lossy ? nullptr : &counts);
  }

  // The traced run also times the identical execution with no monitor
  // armed; core.monitor_x is the ratio of the two loop times.
  if (tr.on() && monitored) {
    scope s(tr, "core.monitor_ref");
    const auto sched2 = make_scheduler(op);
    core::discovery_run ref(g, cfg, *sched2);
    ref.wake_all();
    scope l(tr, "sim.loop_unarmed", &r.unarmed_loop_s);
    ref.run(event_cap(op.n));
  }
  return r;
}

constexpr std::size_t svc_hosts = 3;

op_result run_svc_op(const op_spec& op, tracer& tr, bool setup_only) {
  op_result r;
  r.algo = op.algo;
  r.n = op.n;
  scope op_scope(tr, "op");

  graph::digraph g;
  std::vector<std::vector<node_id>> comps;
  core::config cfg;
  cfg.algo = op.algo;
  std::vector<std::unique_ptr<net::node_host>> hosts;
  {
    scope s(tr, "setup", &r.setup_s);
    {
      scope s2(tr, "graph.generate");
      g = graph::random_weakly_connected(op.n, op.extra_edges, op.graph_seed);
    }
    {
      scope s2(tr, "graph.components");
      comps = g.weak_components();
    }
    scope s2(tr, "core.construct");
    for (std::size_t p = 0; p < svc_hosts; ++p)
      hosts.push_back(
          std::make_unique<net::node_host>(g, cfg, p, svc_hosts, op.delay_seed));
    std::vector<std::uint16_t> ports;
    for (const auto& h : hosts) ports.push_back(h->port());
    for (const auto& h : hosts) h->set_peers(ports);
  }
  if (setup_only) return r;

  sim::pool_detail::reset_peak_bytes();
  bool converged = false;
  core::check_report rep;
  {
    scope v(tr, "verdict", &r.verdict_s);
    {
      scope s(tr, "net.start");
      for (const auto& h : hosts) h->start();
    }
    // loadgen's convergence predicate: zero outstanding work everywhere
    // and cluster-wide progress unchanged across two consecutive rounds.
    // A cluster makes thousands of poll_once calls, so the traced run sums
    // their time into poll_s instead of storing a span for each.
    {
      scope c(tr, "net.converge");
      const std::int64_t deadline =
          now_ns() + static_cast<std::int64_t>(svc_timeout_s * 1e9);
      std::uint64_t last_progress = ~0ull;
      while (now_ns() < deadline) {
        for (const auto& h : hosts) {
          const std::int64_t t = tr.on() ? now_ns() : 0;
          h->poll_once(1);
          if (tr.on()) r.poll_s += static_cast<double>(now_ns() - t) / 1e9;
          ++r.polls;
        }
        std::uint64_t outstanding = 0, progress = 0;
        for (const auto& h : hosts) {
          outstanding += h->outstanding();
          progress += h->progress();
        }
        if (outstanding == 0 && progress == last_progress) {
          converged = true;
          break;
        }
        last_progress = progress;
      }
    }
    if (converged) {
      scope s(tr, "core.check");
      std::vector<core::member_state> members;
      for (const auto& h : hosts)
        for (const node_id v : h->local_nodes()) {
          const core::node& nd = h->at(v);
          core::member_state m;
          m.id = v;
          m.status = nd.status();
          m.next = nd.next();
          m.has_deferred = nd.has_deferred();
          m.has_pending = nd.pending_queue_depth() != 0;
          m.more_empty = nd.more().empty();
          m.unaware_empty = nd.unaware().empty();
          m.done.assign(nd.done().begin(), nd.done().end());
          members.push_back(std::move(m));
        }
      rep = core::check_membership(members, comps, op.algo);
    }
  }

  r.pool_peak_bytes = sim::pool_detail::stats().peak_bytes;
  std::uint64_t decode_errors = 0;
  type_counts counts;
  for (const auto& h : hosts) {
    r.messages += h->net().statistics().total_messages();
    r.events += h->report(converged).events_processed;
    r.wire_bytes += h->net().wire_bytes_sent();
    r.datagrams += h->transport().stats().datagrams_sent;
    const sim::reliable_link_stats st = h->arq().stats();
    r.first_sends += st.data_sent;
    r.retransmits += st.retransmits;
    r.acks += st.acks_sent;
    decode_errors += h->decode_errors();
    counts += counts_of(h->net().statistics());
  }

  if (!converged) {
    r.failed = true;
    r.why = "cluster did not converge within the timeout";
  } else if (!rep.ok()) {
    r.failed = true;
    r.why = "check_membership: " + rep.violations.front();
  } else {
    scope s(tr, "bench.verify");
    std::vector<node_view> views;
    views.reserve(op.n);
    for (const auto& h : hosts)
      for (const node_id v : h->local_nodes()) views.push_back(view_of(h->at(v)));
    verify(r, g, comps, std::move(views), &counts);
    if (r.verified && decode_errors != 0) {
      r.verified = false;
      r.why = std::to_string(decode_errors) + " datagrams failed to decode";
    }
  }
  return r;
}

op_result run_op(kind k, const op_spec& op, tracer& tr, bool setup_only) {
  return k == kind::svc_loopback ? run_svc_op(op, tr, setup_only)
                                 : run_sim_op(k, op, tr, setup_only);
}

// --- verifier self-test ---------------------------------------------------

/// Runs small real executions, checks the verifier accepts them, then
/// corrupts the snapshot (two leaders, an id missing from the leader's done
/// set, a node missing from the snapshot, a next() cycle) and checks each
/// corruption is rejected.  Returns the first problem, empty when all pass.
std::string self_test() {
  for (const core::variant algo : {core::variant::generic, core::variant::adhoc}) {
    const graph::digraph g = graph::multi_component(2, 16, 64, 11);
    sim::random_delay_scheduler sched(5);
    core::config cfg;
    cfg.algo = algo;
    core::discovery_run run(g, cfg, sched);
    run.wake_all();
    run.run();
    std::vector<node_view> good;
    for (const node_id v : run.ids()) good.push_back(view_of(run.at(v)));
    const auto comps = components_of(g.nodes(), edges_of(g));
    const std::string tag = std::string(core::to_string(algo)) + ": ";
    if (comps.size() != 2) return tag + "union-find found " +
                                  std::to_string(comps.size()) + " components, not 2";
    if (!verify_final_state(comps, algo, good).empty())
      return tag + "verifier rejects a correct final state";

    std::size_t leader = good.size();
    std::vector<std::size_t> followers;  // non-leaders of the first component
    for (std::size_t i = 0; i < good.size(); ++i) {
      if (!std::binary_search(comps[0].begin(), comps[0].end(), good[i].id)) continue;
      if (is_leader(good[i].status)) leader = i;
      else followers.push_back(i);
    }
    if (leader == good.size() || followers.size() < 2)
      return tag + "self-test execution has no usable component";

    std::vector<std::pair<const char*, std::vector<node_view>>> bad;
    bad.emplace_back("two leaders", good);
    bad.back().second[followers[0]].status = status_t::wait;
    bad.emplace_back("id missing from the leader's done set", good);
    bad.back().second[leader].done.pop_back();
    bad.emplace_back("node missing from the snapshot", good);
    bad.back().second.erase(bad.back().second.begin() +
                            static_cast<std::ptrdiff_t>(followers[1]));
    bad.emplace_back("next() cycle", good);
    bad.back().second[followers[0]].next = good[followers[1]].id;
    bad.back().second[followers[1]].next = good[followers[0]].id;
    for (auto& [what, views] : bad)
      if (verify_final_state(comps, algo, std::move(views)).empty())
        return tag + "verifier accepts a corrupted state: " + what;

    type_counts over;
    over.query = 4 * g.node_count() + 1;
    if (verify_message_caps(over, g.node_count(), algo).empty())
      return tag + "verifier accepts query+query_reply above 4n";
  }
  return {};
}

// --- metrics --------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

struct metric {
  std::string name;
  double value;
  const char* unit;
};

/// Peak resident set of this process image, from VmHWM.  getrusage's
/// ru_maxrss is not used: Linux carries it across execve, so it would
/// report the launching interpreter's footprint for the small workloads.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr)
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atol(line + 6);
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

struct run_stats {
  std::vector<std::vector<op_result>> rounds;
  std::vector<double> setup_samples;  ///< summed set-up time per pass
};

/// The end-to-end metrics (README.md defines each).
std::vector<metric> end_to_end(kind k, const run_stats& rs) {
  std::vector<double> wall, verdict_ms, eps, mpn;
  for (const auto& round : rs.rounds) {
    double w = 0, loop = 0, m = 0;
    std::uint64_t events = 0;
    for (const op_result& r : round) {
      if (r.failed) continue;
      w += r.verdict_s;
      verdict_ms.push_back(r.verdict_s * 1e3);
      loop += k == kind::svc_loopback ? r.verdict_s : r.loop_s;
      events += r.events;
      m += static_cast<double>(r.messages) / static_cast<double>(r.n);
    }
    wall.push_back(w);
    eps.push_back(loop > 0 ? static_cast<double>(events) / loop : 0.0);
    mpn.push_back(m);
  }
  return {{"wall_s", median(wall), "s"},
          {"setup_s", median(rs.setup_samples), "s"},
          {"verdict_ms.p50", median(verdict_ms), "ms"},
          {"events_per_s", median(eps), "1/s"},
          {"messages_per_node", median(mpn), "count"},
          {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

/// The per-layer metrics, from the spans and counters of a traced run.
/// Times and counts are per round (totals over the measured rounds divided
/// by their number); ratios are over the whole run.
std::vector<metric> per_layer(kind k, const run_stats& rs, const tracer& tr,
                              const std::vector<metric>& e2e) {
  const auto self = tr.self_seconds();
  const double rounds = static_cast<double>(rs.rounds.size());
  const auto self_of = [&self, rounds](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / rounds;
  };
  double armed = 0, unarmed = 0, events = 0, pool_peak = 0;
  double tx = 0, rtx = 0, acks = 0, app = 0, wire = 0;
  double dgrams = 0, dgrams_pn = 0, svc_rtx = 0, first = 0, polls = 0, tx_pn = 0;
  double poll_s = 0;
  std::map<core::variant, std::pair<double, double>> per_variant;  // loop, events
  for (const auto& round : rs.rounds)
    for (const op_result& r : round) {
      const double n = static_cast<double>(r.n);
      armed += r.loop_s;
      unarmed += r.unarmed_loop_s;
      events += static_cast<double>(r.events);
      per_variant[r.algo].first += r.loop_s;
      per_variant[r.algo].second += static_cast<double>(r.events);
      pool_peak = std::max(pool_peak, static_cast<double>(r.pool_peak_bytes));
      wire += static_cast<double>(r.wire_bytes) / n;
      polls += static_cast<double>(r.polls);
      poll_s += r.poll_s;
      if (k == kind::svc_loopback) {
        dgrams += static_cast<double>(r.datagrams);
        dgrams_pn += static_cast<double>(r.datagrams) / n;
        svc_rtx += static_cast<double>(r.retransmits) / n;
        first += static_cast<double>(r.first_sends);
      } else {
        tx += static_cast<double>(r.transmissions);
        tx_pn += static_cast<double>(r.transmissions) / n;
        rtx += static_cast<double>(r.retransmits) / n;
        acks += static_cast<double>(r.acks) / n;
        app += static_cast<double>(r.app_deliveries);
      }
    }
  const auto ns_per_event = [&](core::variant v) {
    if (k == kind::svc_loopback) return 0.0;
    const auto& [loop, ev] = per_variant[v];
    return ev > 0 ? loop / ev * 1e9 : 0.0;
  };

  std::vector<metric> out = {
      {"graph.generate_s", self_of("graph.generate"), "s"},
      {"graph.components_s", self_of("graph.components"), "s"},
      {"core.construct_s", self_of("core.construct"), "s"},
      {"core.check_s", self_of("core.check"), "s"},
      {"core.monitor_x", unarmed > 0 ? armed / unarmed : 1.0, "x"},
      {"sim.loop_s", self_of("sim.loop"), "s"},
      {"sim.events", events / rounds, "count"},
      {"sim.ns_per_event.generic", ns_per_event(core::variant::generic), "ns"},
      {"sim.ns_per_event.bounded", ns_per_event(core::variant::bounded), "ns"},
      {"sim.ns_per_event.adhoc", ns_per_event(core::variant::adhoc), "ns"},
      {"sim.pool_peak_mb", pool_peak / (1024.0 * 1024.0), "MB"},
      {"sim.arq.transmissions_per_node", tx_pn / rounds, "count"},
      {"sim.arq.retransmits_per_node", rtx / rounds, "count"},
      {"sim.arq.acks_per_node", acks / rounds, "count"},
      {"sim.arq.useful_ratio", tx > 0 ? app / tx : 0.0, "ratio"},
      {"sim.wire.bytes_per_node", wire / rounds, "B"},
      {"net.start_s", self_of("net.start"), "s"},
      {"net.poll_s", poll_s / rounds, "s"},
      {"net.polls", polls / rounds, "count"},
      {"net.datagrams_per_node", dgrams_pn / rounds, "count"},
      {"net.retransmits_per_node", svc_rtx / rounds, "count"},
      {"net.useful_ratio", dgrams > 0 ? first / dgrams : 0.0, "ratio"},
      {"bench.verify_s", self_of("bench.verify"), "s"},
      {"trace.spans", static_cast<double>(tr.spans_in_rounds()) / rounds, "count"},
  };
  for (const metric& m : e2e)
    out.push_back({"trace." + m.name, m.value, m.unit});
  return out;
}

// --- main -----------------------------------------------------------------

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "large_n|lossy_small|monitored|svc_loopback --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n",
               msg);
  return 2;
}

int run_main(int argc, char** argv) {
  std::string name, spans_path;
  std::uint64_t seed = 0, seconds = 0, trace = 0;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string val = argv[i + 1];
    std::optional<std::uint64_t> num;
    if (flag == "--workload") {
      name = val;
    } else if (flag == "--spans") {
      spans_path = val;
    } else if ((num = parse_u64(val)); !num) {
      return usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      seed = *num;
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = *num;
      have_seconds = true;
    } else if (flag == "--trace" && *num <= 1) {
      trace = *num;
    } else {
      return usage(("unknown flag or value: " + flag).c_str());
    }
  }
  const std::optional<workload> wl = make_workload(name, seed);
  if (!wl) return usage("unknown --workload");
  if (!have_seed || !have_seconds || seconds == 0)
    return usage("--seed and --seconds (> 0) are required");

  const std::string self = self_test();
  if (!self.empty()) std::fprintf(stderr, "self-test failed: %s\n", self.c_str());

  tracer tr(trace == 1);
  run_stats rs;
  const std::int64_t t0 = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(seconds) * 1'000'000'000;
  std::uint64_t attempted = 0, failed = 0;
  bool correct = self.empty();
  for (;;) {
    tr.set_round(static_cast<std::int32_t>(rs.rounds.size()));
    const std::int64_t start = now_ns();
    std::vector<op_result> round;
    double setup = 0;
    for (const op_spec& op : wl->ops) {
      op_result r = run_op(wl->k, op, tr, false);
      ++attempted;
      setup += r.setup_s;
      if (r.failed) {
        ++failed;
        // Simulated executions repeat exactly every round; report once.
        if (rs.rounds.empty() || wl->k == kind::svc_loopback)
          std::fprintf(stderr, "failed operation (%s, n=%zu): %s\n",
                       std::string(core::to_string(r.algo)).c_str(), r.n,
                       r.why.c_str());
      } else if (!r.verified) {
        correct = false;
        std::fprintf(stderr, "incorrect output (%s, n=%zu): %s\n",
                     std::string(core::to_string(r.algo)).c_str(), r.n,
                     r.why.c_str());
      }
      round.push_back(std::move(r));
    }
    rs.rounds.push_back(std::move(round));
    rs.setup_samples.push_back(setup);
    const std::int64_t end = now_ns();
    if (end + (end - start) > t0 + budget) break;
  }
  tr.set_round(-1);
  // set-up is reported as a median over at least three passes; when fewer
  // rounds fit, repeat the set-up alone (no execution) for the rest.
  while (rs.setup_samples.size() < 3) {
    double setup = 0;
    for (const op_spec& op : wl->ops)
      setup += run_op(wl->k, op, tr, true).setup_s;
    rs.setup_samples.push_back(setup);
  }

  const std::vector<metric> e2e = end_to_end(wl->k, rs);
  const std::vector<metric> out =
      tr.on() ? per_layer(wl->k, rs, tr, e2e) : e2e;
  if (tr.on() && !spans_path.empty() && !tr.write(spans_path))
    std::fprintf(stderr, "could not write spans to %s\n", spans_path.c_str());

  std::fprintf(stderr, "%s seed=%llu: %zu rounds of %zu operations, %.1f s\n",
               name.c_str(), static_cast<unsigned long long>(seed),
               rs.rounds.size(), wl->ops.size(),
               static_cast<double>(now_ns() - t0) / 1e9);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[160];
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::printf("%-34s %18.6f %s\n", out[i].name.c_str(), out[i].value,
                out[i].unit);
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", out[i].name.c_str(), out[i].value,
                  out[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("operations attempted %llu, failed %llu\n%s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
