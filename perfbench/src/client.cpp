// perfbench_client — the benchmark's measuring program.
//
//   perfbench_client load  --snapshot F --port P --seed S [workload flags]
//   perfbench_client trace --seed S --work DIR [workload flags]
//
// `load` computes the expected answers in-process, then drives a running
// server (rspcli serve / serve --router) over loopback TCP with open-loop
// traffic: a warm-up, the nominal rate, then the rate ladder. It prints one
// JSON object with latencies, the ladder outcome and the answer check.
// `trace` (trace.cpp) replays the same inputs through each layer in-process
// and records spans.

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>

#include "flags.h"
#include "loadgen.h"
#include "report.h"
#include "workload.h"

namespace perfbench {
int cmd_trace(const Flags& f);
}

namespace {

using namespace perfbench;

constexpr size_t kConnections = 4;
constexpr size_t kOracleThreads = 4;
constexpr double kWarmupS = 1.0;

// Sends "STATS" to a server port and returns its one-line answer.
std::string read_stats(uint16_t port) {
  const int fd = connect_local(port);
  (void)!::send(fd, "STATS\nQUIT\n", 11, MSG_NOSIGNAL);
  std::string line;
  char c;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') line += c;
  ::close(fd);
  return line;
}

struct Verdict {
  bool pass = false;
  double p99_ms = 0;
  double rate = 0;  // achieved offered rate, requests per second
};

Verdict judge(PhaseResult& r, double rate, double slo_ms,
              double lag_limit_ms, size_t connections) {
  Verdict out;
  double stolen = 0;
  out.p99_ms = tail(outside_steal(r.samples, r.steal, &stolen), -1).p99_ms;
  // Achieved: requests written per second between the first and last write.
  const int64_t span = r.last_send_ns - r.first_send_ns;
  out.rate = r.sent > 1 && span > 0
                 ? static_cast<double>(r.sent - 1) * 1e9 / static_cast<double>(span)
                 : 0;
  const double max_backlog = rate * slo_ms / 1e3 + 2.0 * connections;
  // The generator fell behind when its typical send was late; a host
  // stall that delays a burst of sends already shows in the latencies.
  out.pass = r.failed == 0 && out.p99_ms <= slo_ms &&
             static_cast<double>(r.backlog_end) <= max_backlog &&
             quantile(r.lag_ns, 0.5) / 1e6 <= lag_limit_ms;
  return out;
}

int cmd_load(const Flags& f) {
  const std::string snapshot = f.str("snapshot");
  const auto port = static_cast<uint16_t>(f.num("port"));
  const auto seed = static_cast<uint64_t>(f.num("seed"));
  Mix mix;
  mix.len = f.num("len");
  mix.path = f.num("path");
  mix.batch = f.num("batch");
  mix.batch_k = static_cast<size_t>(f.num("batch-k"));
  mix.corner_frac = f.num("corner-frac");
  mix.corners = static_cast<size_t>(f.num("corners"));
  mix.pool = static_cast<size_t>(f.num("pool"));
  const double nominal = f.num("nominal");
  const double nominal_s = f.num("nominal-s");
  const double slo_ms = f.num("slo-ms");
  const double lag_limit_ms = f.num("lag-limit-ms");
  const double step_s = f.num("step-s");
  const double step_min = f.num("step-min-samples");
  const double budget_s = f.num("budget-s");
  const size_t conns = kConnections;
  std::vector<double> ladder;
  if (f.has("ladder")) {
    std::stringstream ss(f.str("ladder"));
    std::string tok;
    while (std::getline(ss, tok, ',')) ladder.push_back(std::stod(tok));
  }

  // ---- Expected answers (outside any timing) ----
  const int64_t t_oracle = now_ns();
  ItemSet set;
  rsp::Scene scene;
  std::vector<rsp::PointPair> pool;
  Expected want;
  uint64_t oracle_bad = 0, dijkstra_checked = 0;
  {
    rsp::OpenOptions oo;
    oo.engine.num_threads = kOracleThreads;
    auto eng = rsp::Engine::open(snapshot, oo);
    if (!eng.ok()) {
      std::cerr << "oracle open failed: " << eng.status().message() << "\n";
      return 2;
    }
    scene = eng->scene();
    // The distinct pairs are fixed per workload (--pool-seed); --seed draws
    // the traffic over them: verbs, order, BATCH makeup and send phase.
    pool = compute_expected(
        *eng,
        make_pool(scene, mix, static_cast<uint64_t>(f.num("pool-seed"))),
        want);
    for (size_t i = 0; i < pool.size(); ++i) {
      if (auto bad = check_path(scene, pool[i].s, pool[i].t, want.path[i],
                                want.len[i])) {
        std::cerr << "oracle path " << i << ": " << *bad << "\n";
        ++oracle_bad;
      }
    }
    // Independent oracle on a sample: Dijkstra on the track graph.
    const size_t k = std::min(pool.size(),
                              static_cast<size_t>(f.num("dijkstra")));
    rsp::Engine dj(scene, {.backend = rsp::Backend::kDijkstraBaseline,
                           .num_threads = oo.engine.num_threads});
    auto dl = dj.lengths(std::span(pool.data(), k));
    for (size_t i = 0; i < k; ++i) {
      if (!dl.ok() || (*dl)[i] != want.len[i]) ++oracle_bad;
    }
    dijkstra_checked = k;
  }
  set = make_items(pool, want, mix, static_cast<size_t>(f.num("batches")),
                   seed);
  const double oracle_s = static_cast<double>(now_ns() - t_oracle) / 1e9;

  Checker check = [&](uint32_t item, std::string_view line) {
    if (line == set.expect[item]) return true;
    if (set.items[item].verb != 1) return false;
    // A PATH that differs from the oracle's may still be a shortest path.
    auto pts = parse_path_line(line);
    const uint32_t i = set.pair_of[item];
    return pts && !check_path(scene, pool[i].s, pool[i].t, *pts, want.len[i]);
  };

  // ---- Load ----
  LoadGen lg(port, conns, &set.items, check);
  uint64_t phase_seed = seed * 0x9E3779B97F4A7C15ull + 7;
  auto pick = [&](uint64_t& rng) { return pick_item(set, mix, rng); };
  // Answers may trail a phase's last send by a few latency limits; on a
  // ladder step one limit and a margin suffice, since a later answer fails
  // the step anyway.
  const int64_t drain = static_cast<int64_t>(std::max(2000.0, 4 * slo_ms) * 1e6);
  const int64_t step_drain = static_cast<int64_t>(std::max(500.0, 2 * slo_ms) * 1e6);
  auto run_phase = [&](double rate, double seconds, int64_t drain_ns) {
    return lg.run(paced_schedule(rate, static_cast<int64_t>(seconds * 1e9),
                                   conns, ++phase_seed, pick),
                  drain_ns);
  };
  const int64_t t_load = now_ns();
  // Every wrong or ERR answer fails the run. A request left unanswered
  // fails it too, except on a ladder step: climbing past capacity until
  // the answers stop coming in time is what the ladder is for.
  uint64_t attempted = 0, failed = 0, ladder_timeouts = 0;
  auto tally = [&](const PhaseResult& r, bool ladder = false) {
    attempted += r.scheduled;
    failed += ladder ? r.failed - r.timed_out : r.failed;
    if (ladder) ladder_timeouts += r.timed_out;
  };

  PhaseResult warm = run_phase(nominal, kWarmupS, drain);
  tally(warm);
  PhaseResult nom = run_phase(nominal, nominal_s, drain);
  tally(nom);
  const uint64_t nominal_failed = nom.failed;
  Verdict nv = judge(nom, nominal, slo_ms, lag_limit_ms, conns);

  Report rep;
  const char* verbs[kVerbs] = {"len", "path", "batch"};
  double stolen = 0;
  const std::vector<Sample> unstolen = outside_steal(nom.samples, nom.steal, &stolen);
  for (int v = 0; v < kVerbs; ++v) {
    const Tail all = tail(nom.samples, v);
    const Tail t = tail(unstolen, v);
    const std::string name = verbs[v];
    rep.num(name + "_samples", static_cast<double>(t.count));
    rep.num(name + "_p50_ms", t.p50_ms);
    rep.num(name + "_tail_q", t.q);
    rep.num(name + "_p99_ms", t.p99_ms);
    rep.num(name + "_p50_all_ms", all.p50_ms);
    rep.num(name + "_p99_all_ms", all.p99_ms);
  }
  rep.num("steal_share", stolen);
  rep.num("nominal_p99_ms", nv.p99_ms);
  rep.num("nominal_rate", nv.rate);
  rep.num("nominal_failed", static_cast<double>(nominal_failed));
  rep.num("lag_p50_ms", quantile(nom.lag_ns, 0.5) / 1e6);
  rep.num("lag_p99_ms", quantile(nom.lag_ns, 0.99) / 1e6);
  rep.num("sent", static_cast<double>(nom.sent));

  // The highest rate within the limit: the nominal phase and the ladder's
  // passing steps bound it from below; when the first failing step failed
  // on latency alone, the p99 limit is crossed between it and the last
  // passing step, and the crossing is interpolated on log p99 against log
  // rate. A pure pass/fail ladder would jump a whole step whenever
  // run-to-run noise moves the knee across a step. A ladder that ends
  // without a failing step (out of steps or out of budget) gives only a
  // lower bound, flagged as `ladder_clipped`.
  Verdict last = nv;
  double max_rps = nv.pass ? nv.rate : 0;
  std::string steps = "[";
  bool step_failed = false;
  for (double rate : ladder) {
    const double secs = std::max(step_s, step_min / rate);
    if (static_cast<double>(now_ns() - t_load) / 1e9 + secs > budget_s) break;
    PhaseResult r = run_phase(rate, secs, step_drain);
    tally(r, true);
    Verdict v = judge(r, rate, slo_ms, lag_limit_ms, conns);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s{\"rate\": %.1f, \"p99_ms\": %.4f, \"failed\": %llu, "
                  "\"backlog\": %llu, \"pass\": %s}",
                  steps.size() > 1 ? ", " : "", rate, v.p99_ms,
                  static_cast<unsigned long long>(r.failed),
                  static_cast<unsigned long long>(r.backlog_end),
                  v.pass ? "true" : "false");
    steps += buf;
    if (!v.pass) {
      step_failed = true;
      // Unanswered requests waited past the limit too; wrong answers or
      // a generator that fell behind leave nothing to interpolate.
      const bool latency_only = r.failed == r.timed_out && v.p99_ms > slo_ms &&
                                quantile(r.lag_ns, 0.5) / 1e6 <= lag_limit_ms;
      if (last.pass && latency_only && last.p99_ms > 0 && v.p99_ms > last.p99_ms) {
        const double x = std::log(slo_ms / last.p99_ms) /
                         std::log(v.p99_ms / last.p99_ms);
        max_rps = last.rate * std::pow(v.rate / last.rate, x);
      }
      break;
    }
    last = v;
    max_rps = v.rate;
  }
  steps += "]";
  rep.num("max_rps_at_slo", max_rps);
  rep.flag("ladder_clipped", !ladder.empty() && !step_failed);
  rep.raw("ladder", steps);
  rep.num("attempted", static_cast<double>(attempted));
  rep.num("failed", static_cast<double>(failed));
  rep.num("ladder_timeouts", static_cast<double>(ladder_timeouts));
  rep.num("oracle_bad", static_cast<double>(oracle_bad));
  rep.num("dijkstra_checked", static_cast<double>(dijkstra_checked));
  rep.num("pool_pairs", static_cast<double>(pool.size()));
  rep.num("oracle_s", oracle_s);
  rep.num("connections", static_cast<double>(lg.connections()));
  rep.num("load_s", static_cast<double>(now_ns() - t_load) / 1e9);

  std::stringstream ss(f.str("stats-ports"));
  std::string tok;
  for (size_t i = 0; std::getline(ss, tok, ','); ++i) {
    rep.str("stats" + std::to_string(i),
            read_stats(static_cast<uint16_t>(std::stoi(tok))));
  }
  std::cout << rep.json() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_client load|trace --flag value ...\n";
    return 1;
  }
  try {
    const std::string cmd = argv[1];
    Flags f(argc, argv, 2);
    if (cmd == "load") return cmd_load(f);
    if (cmd == "trace") return perfbench::cmd_trace(f);
    std::cerr << "unknown command " << cmd << "\n";
  } catch (const std::exception& e) {
    std::cerr << "perfbench_client: " << e.what() << "\n";
    return 2;
  }
  return 1;
}
