// perfbench_client trace — the traced per-layer replay.
//
// Replays the workload's generated inputs through each layer's public
// functions in-process and records a span around every call (spans.h):
//
//   setup    build (io/gen + Engine build on pram/scheduler), io/snapshot
//            (Engine::save, Engine::open)
//   request  serve/protocol (parse_request, format_*), serve/router
//            (Router::serve over channels replaying precomputed shard
//            lines), serve/server (QueryServer::serve, one pipelined
//            session), api/engine, then the backend the engine fronts:
//            core/query (AllPairsSP) or backend/boundary_tree
//
// Lower layers are kept out of a layer's span where its API allows: the
// router's shard channels answer from a table, and QueryServer and the
// api/engine span run on a stub engine (the real container, one real
// obstacle), so their spans hold the layer's own work; the backend spans
// call the real structure directly. Besides the spans, it reports each
// layer's counters and per-call costs (one JSON object on stdout) and
// writes the spans to --spans.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "api/engine.h"
#include "backend/boundary_tree.h"
#include "core/dnc_builder.h"
#include "core/query.h"
#include "flags.h"
#include "io/gen.h"
#include "io/manifest.h"
#include "report.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

namespace {

using rsp::Engine;
using rsp::Length;
using rsp::Point;
using rsp::PointPair;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double secs_since(int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

// Parses a wire payload: one request line plus any BATCH pair lines.
rsp::ParsedRequest parse_payload(const std::string& payload) {
  size_t pos = payload.find('\n');
  std::string_view all(payload);
  std::string_view first = all.substr(0, pos);
  return rsp::parse_request(first, [&](std::string& l) {
    if (pos + 1 >= all.size()) return false;
    const size_t nl = all.find('\n', pos + 1);
    l.assign(all.substr(pos + 1, nl - pos - 1));
    pos = nl;
    return true;
  });
}

// The shard side of a fleet, as seen by the router: precomputed response
// lines keyed by (shard, payload). In record mode a missing line is
// computed from the shard's owned-rows engine, exactly as a shard server
// would answer it; in replay mode every line must already be known.
struct ShardBook {
  std::vector<const Engine*> shards;
  std::vector<std::unordered_map<std::string, std::string>> lines;
  bool record = true;

  std::string answer(size_t shard, const std::string& payload) {
    auto& m = lines[shard];
    if (auto it = m.find(payload); it != m.end()) return it->second;
    if (!record) return "ERR BAD_REQUEST unrecorded exchange";
    const rsp::ParsedRequest pr = parse_payload(payload);
    const Engine& e = *shards[shard];
    std::string out;
    if (!pr.ok) {
      out = rsp::format_error("BAD_REQUEST", pr.error);
    } else if (pr.req.verb == rsp::Verb::kPath) {
      auto r = e.path(pr.req.pairs[0].s, pr.req.pairs[0].t);
      out = r.ok() ? rsp::format_path(*r) : rsp::format_error(r.status());
    } else {
      auto r = e.lengths(pr.req.pairs);
      if (!r.ok()) {
        out = rsp::format_error(r.status());
      } else {
        out = pr.req.verb == rsp::Verb::kLen ? rsp::format_length((*r)[0])
                                             : rsp::format_batch(*r);
      }
    }
    m.emplace(payload, out);
    return out;
  }
};

class BookChannel : public rsp::ShardChannel {
 public:
  BookChannel(ShardBook* book, size_t shard) : book_(book), shard_(shard) {}
  bool send(std::string_view data) override {
    pending_.push_back(book_->answer(shard_, std::string(data)));
    return true;
  }
  bool recv_line(std::string& line, std::chrono::milliseconds) override {
    if (pending_.empty()) return false;
    line = std::move(pending_.front());
    pending_.pop_front();
    return true;
  }

 private:
  ShardBook* book_;
  size_t shard_;
  std::deque<std::string> pending_;
};

// Runs `fn` `iters` times and returns the mean ns per call.
template <typename Fn>
double ns_per_call(size_t iters, Fn&& fn) {
  const int64_t t0 = now_ns();
  for (size_t i = 0; i < iters; ++i) fn(i);
  return static_cast<double>(now_ns() - t0) / static_cast<double>(iters);
}

}  // namespace

int cmd_trace(const Flags& f) {
  const auto seed = static_cast<uint64_t>(f.num("seed"));
  const std::string work = f.str("work");
  const size_t build_threads = static_cast<size_t>(f.num("build-threads"));
  const size_t threads = static_cast<size_t>(f.num("threads"));
  const size_t shards = static_cast<size_t>(f.num("shards"));
  const bool mmap = f.str("map") == "mmap";
  const size_t requests = static_cast<size_t>(f.num("requests"));
  Mix mix;
  mix.len = f.num("len");
  mix.path = f.num("path");
  mix.batch = f.num("batch");
  mix.batch_k = static_cast<size_t>(f.num("batch-k"));
  mix.corner_frac = f.num("corner-frac");
  mix.corners = static_cast<size_t>(f.num("corners"));
  mix.pool = static_cast<size_t>(f.num("pool"));

  Spans sp;
  Report rep;

  // ---- Set-up replay: generate, build, save, open ----
  rsp::SceneGen gen = nullptr;
  for (const auto& g : rsp::kAllGens) {
    if (f.str("gen") == g.name) gen = g.fn;
  }
  if (!gen) throw std::runtime_error("unknown generator " + f.str("gen"));
  std::optional<Engine> built;
  std::vector<Engine> served;  // one engine, or one owned mount per shard
  const std::string saved = work + (shards ? "/trace.man" : "/trace.rsnap");
  {
    Spans::Scope setup(sp, "setup", -1);
    int64_t t0 = now_ns();
    rsp::Scene scene;
    {
      Spans::Scope s(sp, "build", -1);
      scene = gen(static_cast<size_t>(f.num("n")),
                  static_cast<uint64_t>(f.num("scene-seed")));
    }
    rep.metric("build.gen_s", secs_since(t0), "s");
    const double cpu0 = cpu_seconds();
    t0 = now_ns();
    {
      Spans::Scope s(sp, "build", -1);
      built.emplace(std::move(scene), rsp::EngineOptions{.num_threads =
                                                             build_threads});
      if (auto st = built->warmup(); !st.ok()) {
        throw std::runtime_error("build failed: " + st.message());
      }
    }
    const double build_s = secs_since(t0);
    rep.metric("build.build_s", build_s, "s");
    rep.metric("build.cpu_util",
           (cpu_seconds() - cpu0) / (build_s * static_cast<double>(build_threads)),
           "ratio");
    const rsp::EngineMetrics bm = built->metrics();
    rsp::DncStats ds;
    if (const rsp::BoundaryTreeSP* bt = built->boundary_tree()) {
      ds = bt->build_stats();
    } else {
      ds.sched_tasks = bm.sched_tasks_executed;
      ds.sched_steals = bm.sched_steals;
      ds.workers_observed = built->num_threads();
    }
    rep.metric("build.workers", static_cast<double>(ds.workers_observed), "count");
    rep.metric("build.sched_tasks", static_cast<double>(ds.sched_tasks), "count");
    rep.metric("build.sched_steals", static_cast<double>(ds.sched_steals), "count");
    rep.metric("build.nodes", static_cast<double>(ds.nodes), "count");
    rep.metric("build.monge_multiplies", static_cast<double>(ds.monge_multiplies),
           "count");
    rep.metric("build.monge_fallbacks", static_cast<double>(ds.monge_fallbacks),
           "count");

    t0 = now_ns();
    {
      Spans::Scope s(sp, "io/snapshot", -1);
      if (auto st = built->save(saved, {.shards = shards}); !st.ok()) {
        throw std::runtime_error("save failed: " + st.message());
      }
    }
    rep.metric("snapshot.save_s", secs_since(t0), "s");
    double file_bytes = 0;
    for (size_t i = 0; i < std::max<size_t>(shards, 1); ++i) {
      file_bytes += static_cast<double>(std::filesystem::file_size(
          shards ? saved + ".shard" + std::to_string(i) : saved));
    }
    rep.metric("snapshot.file_mb", file_bytes / 1e6, "MB");
    t0 = now_ns();
    {
      Spans::Scope s(sp, "io/snapshot", -1);
      for (size_t i = 0; i < std::max<size_t>(shards, 1); ++i) {
        rsp::OpenOptions oo;
        oo.engine.num_threads = threads;
        oo.map = mmap ? rsp::MapMode::kMmap : rsp::MapMode::kEager;
        if (shards) {
          oo.mount = rsp::MountMode::kOwnedRows;
          oo.shard = i;
        }
        auto e = Engine::open(saved, oo);
        if (!e.ok()) throw std::runtime_error("open: " + e.status().message());
        served.push_back(std::move(*e));
      }
    }
    rep.metric("snapshot.open_s", secs_since(t0), "s");
    double mapped = 0, total = 0;
    for (const Engine& e : served) {
      const auto mb = e.memory_breakdown();
      mapped += static_cast<double>(mb.mapped_bytes);
      total += static_cast<double>(mb.total_bytes);
    }
    rep.metric("snapshot.mapped_mb", mapped / 1e6, "MB");
    rep.metric("snapshot.resident_mb", (total - mapped) / 1e6, "MB");
  }

  // The served engine answers single-server workloads; a fleet's shard
  // mounts hold a third of the rows each, so `built` stands in for them.
  const Engine& full = shards ? *built : served[0];
  const rsp::Scene& scene = full.scene();
  Expected want;
  const std::vector<PointPair> pool =
      compute_expected(
          full,
          make_pool(scene, mix, static_cast<uint64_t>(f.num("scene-seed"))),
          want);
  const ItemSet set = make_items(pool, want, mix, 64, seed);
  uint64_t rng = seed * 0xA24BAED4963EE407ull + 3;
  std::vector<uint32_t> picks(requests);
  for (auto& p : picks) p = pick_item(set, mix, rng);

  // Stub engines: the real container and one real obstacle, so the
  // serve/server and api/engine spans hold their own work, not the
  // backend's. Every request point is free in the real scene, hence here.
  auto stub = [&] {
    return Engine(rsp::Scene({scene.obstacle(0)}, scene.container()),
                  {.num_threads = threads});
  };
  Engine stub_engine = stub();
  rsp::QueryServer stub_server(stub(), {});

  const rsp::AllPairsSP* ap = full.all_pairs();
  const rsp::BoundaryTreeSP* bt = full.boundary_tree();

  // Router fleet over recorded shard lines (fleet workloads only).
  ShardBook book;
  std::unique_ptr<rsp::Router> router;
  if (shards) {
    auto man = rsp::load_manifest(saved);
    if (!man.ok()) throw std::runtime_error(man.status().message());
    for (const Engine& e : served) book.shards.push_back(&e);
    book.lines.resize(served.size());
    router = std::make_unique<rsp::Router>(
        std::move(*man), [&book](size_t s) {
          return std::make_unique<BookChannel>(&book, s);
        });
    // Record pass: every exchange the replay will make.
    for (uint32_t it : picks) {
      std::istringstream in(set.items[it].payload);
      std::ostringstream out;
      router->serve(in, out);
    }
    book.record = false;
  }

  // ---- Request replay: one root span per request ----
  {
    Spans::Scope all(sp, "requests", -1);
    for (size_t r = 0; r < picks.size(); ++r) {
      const Item& item = set.items[picks[r]];
      const size_t first = set.pair_of[picks[r]];
      const size_t k = item.verb == 2 ? std::min(mix.batch_k, pool.size()) : 1;
      std::vector<PointPair> pairs;
      for (size_t j = 0; j < k; ++j) pairs.push_back(pool[(first + j) % pool.size()]);
      Spans::Scope req(sp, "request", static_cast<int64_t>(r));
      {
        Spans::Scope s(sp, "serve/protocol", static_cast<int64_t>(r));
        (void)parse_payload(item.payload);
      }
      if (router) {
        Spans::Scope s(sp, "serve/router", static_cast<int64_t>(r));
        std::istringstream in(item.payload);
        std::ostringstream out;
        router->serve(in, out);
      }
      {
        Spans::Scope s(sp, "api/engine", static_cast<int64_t>(r));
        if (item.verb == 1) {
          (void)stub_engine.path(pairs[0].s, pairs[0].t);
        } else {
          (void)stub_engine.lengths(pairs);
        }
      }
      if (ap) {
        Spans::Scope s(sp, "core/query", static_cast<int64_t>(r));
        for (const PointPair& p : pairs) {
          if (item.verb == 1) {
            (void)ap->path(p.s, p.t);
          } else {
            (void)ap->length(p.s, p.t);
          }
        }
      }
      if (bt) {
        Spans::Scope s(sp, "backend/boundary_tree", static_cast<int64_t>(r));
        for (const PointPair& p : pairs) {
          if (item.verb == 1) {
            (void)bt->path(p.s, p.t);
          } else {
            (void)bt->length(p.s, p.t);
          }
        }
      }
      {
        Spans::Scope s(sp, "serve/protocol", static_cast<int64_t>(r));
        std::string line;
        if (item.verb == 0) line = rsp::format_length(want.len[first]);
        if (item.verb == 1) line = rsp::format_path(want.path[first]);
        if (item.verb == 2) {
          std::vector<Length> lens;
          for (size_t j = 0; j < k; ++j) lens.push_back(want.len[(first + j) % pool.size()]);
          line = rsp::format_batch(lens);
        }
      }
    }
    // The server as clients drive it: every request pipelined on one
    // session, so admission and coalescing work as under load.
    std::string script;
    for (uint32_t it : picks) script += set.items[it].payload;
    Spans::Scope s(sp, "serve/server", -1);
    std::istringstream in(script);
    std::ostringstream out;
    stub_server.serve(in, out);
  }

  // Attributed time per layer: self time per replayed request.
  const auto self = sp.self_ns();
  const std::pair<const char*, const char*> req_layers[] = {
      {"serve/protocol", "serve-protocol"}, {"serve/router", "serve-router"},
      {"serve/server", "serve-server"},     {"api/engine", "api-engine"},
      {"core/query", "core-query"},
      {"backend/boundary_tree", "backend-boundary_tree"}};
  double req_total = 0;
  for (auto [name, key] : req_layers) {
    if (self.count(name)) req_total += static_cast<double>(self.at(name));
  }
  for (auto [name, key] : req_layers) {
    const double ns = self.count(name) ? static_cast<double>(self.at(name)) : 0;
    rep.metric(std::string("span.req_us.") + key,
           ns / 1e3 / static_cast<double>(requests), "us");
    rep.metric(std::string("span.req_share.") + key,
           req_total > 0 ? ns / req_total : 0, "ratio");
  }
  const double setup_ns =
      static_cast<double>(self.at("build") + self.at("io/snapshot"));
  rep.metric("span.setup_s.build", static_cast<double>(self.at("build")) / 1e9, "s");
  rep.metric("span.setup_s.io-snapshot",
         static_cast<double>(self.at("io/snapshot")) / 1e9, "s");
  rep.metric("span.setup_share.build",
         static_cast<double>(self.at("build")) / setup_ns, "ratio");
  if (!sp.write_json(f.str("spans"))) {
    std::cerr << "cannot write spans to " << f.str("spans") << "\n";
  }

  // ---- Per-layer costs outside the span tree ----
  // serve/protocol: parse and format cost per request, by verb.
  const size_t n = set.num_pairs;
  const char* verbs[kVerbs] = {"len", "path", "batch"};
  const size_t ranges[kVerbs][2] = {{0, n}, {n, 2 * n}, {2 * n, set.items.size()}};
  double bytes = 0, resp_pairs = 0;
  for (int v = 0; v < kVerbs; ++v) {
    const size_t lo = ranges[v][0], cnt = ranges[v][1] - lo;
    if (cnt == 0) {
      rep.metric(std::string("protocol.parse_ns.") + verbs[v], 0, "ns");
      rep.metric(std::string("protocol.format_ns.") + verbs[v], 0, "ns");
      continue;
    }
    const size_t iters = std::max<size_t>(cnt, 4000);
    rep.metric(std::string("protocol.parse_ns.") + verbs[v],
           ns_per_call(iters, [&](size_t i) {
             (void)parse_payload(set.items[lo + i % cnt].payload);
           }),
           "ns");
    std::vector<std::vector<Length>> batch_lens;
    if (v == 2) {
      for (size_t b = 0; b < cnt; ++b) {
        std::vector<Length> lens;
        for (size_t j = 0; j < mix.batch_k; ++j) {
          lens.push_back(want.len[(set.pair_of[lo + b] + j) % pool.size()]);
        }
        batch_lens.push_back(std::move(lens));
      }
    }
    rep.metric(std::string("protocol.format_ns.") + verbs[v],
           ns_per_call(iters, [&](size_t i) {
             const size_t j = i % cnt;
             if (v == 0) (void)rsp::format_length(want.len[j]);
             if (v == 1) (void)rsp::format_path(want.path[j]);
             if (v == 2) (void)rsp::format_batch(batch_lens[j]);
           }),
           "ns");
    const double share = v == 0 ? mix.len : v == 1 ? mix.path : mix.batch;
    double b = 0;
    for (size_t i = lo; i < lo + cnt; ++i) b += static_cast<double>(set.expect[i].size() + 1);
    bytes += share * b / static_cast<double>(cnt);
    resp_pairs += share * (v == 2 ? static_cast<double>(mix.batch_k) : 1.0);
  }
  rep.metric("protocol.resp_bytes_per_pair", bytes / resp_pairs, "B");

  // serve/router: Router::serve self time per request, LEN and BATCH.
  for (int v : {0, 2}) {
    const std::string key = std::string("router.self_us.") + verbs[v];
    const size_t lo = ranges[v][0], cnt = ranges[v][1] - lo;
    if (!router || cnt == 0) {
      rep.metric(key, 0, "us");
      continue;
    }
    std::string script;
    const size_t reqs = std::min<size_t>(cnt, 256);
    for (size_t i = 0; i < reqs; ++i) script += set.items[lo + i].payload;
    book.record = true;  // these payloads were not all in the replay
    {
      std::istringstream in(script);
      std::ostringstream out;
      router->serve(in, out);
    }
    book.record = false;
    std::istringstream in(script);
    std::ostringstream out;
    const int64_t t0 = now_ns();
    router->serve(in, out);
    rep.metric(key, static_cast<double>(now_ns() - t0) / 1e3 / static_cast<double>(reqs),
           "us");
  }

  // api/engine: batch cost per pair at the served batch size, against the
  // backend called directly on one thread.
  const size_t mb = std::max<size_t>(1, static_cast<size_t>(
                                            std::lround(f.num("mean-batch"))));
  const size_t direct_pairs = std::min<size_t>(pool.size(), bt ? 24 : 2048);
  auto direct_len = [&](const PointPair& p) {
    return ap ? ap->length(p.s, p.t) : bt->length(p.s, p.t);
  };
  const double direct_ns = ns_per_call(direct_pairs, [&](size_t i) {
    (void)direct_len(pool[i]);
  });
  const size_t eng_pairs = std::max(mb, std::min<size_t>(pool.size(), bt ? 48 : 4096));
  const rsp::EngineMetrics m0 = full.metrics();
  auto per_pair = [&](bool paths) {
    const int64_t t0 = now_ns();
    size_t done = 0;
    for (size_t i = 0; i + mb <= eng_pairs; i += mb) {
      std::vector<PointPair> b;
      for (size_t j = 0; j < mb; ++j) b.push_back(pool[(i + j) % pool.size()]);
      if (paths) {
        (void)full.paths(b);
      } else {
        (void)full.lengths(b);
      }
      done += mb;
    }
    return static_cast<double>(now_ns() - t0) / static_cast<double>(done);
  };
  const double len_ns = per_pair(false);
  const double path_ns = per_pair(true);
  const rsp::EngineMetrics m1 = full.metrics();
  rep.metric("engine.lengths_us_per_pair", len_ns / 1e3, "us");
  rep.metric("engine.paths_us_per_pair", path_ns / 1e3, "us");
  rep.metric("engine.fanout_ratio", len_ns / direct_ns, "ratio");
  rep.metric("engine.sched_tasks",
         static_cast<double>(m1.sched_tasks_executed - m0.sched_tasks_executed),
         "count");
  rep.metric("engine.sched_steals",
         static_cast<double>(m1.sched_steals - m0.sched_steals), "count");

  // core/query: the all-pairs structure on free points (the §6.4
  // reduction) and on obstacle corners (table lookups).
  {
    double lf = 0, lc = 0, pf = 0, pc = 0;
    if (ap) {
      const size_t q = 512;
      const auto pts = rsp::random_free_points(scene, 2 * q, seed + 101);
      const auto& verts = scene.obstacle_vertices();
      uint64_t vr = seed;
      std::vector<PointPair> corner(q);
      for (auto& c : corner) {
        c = {verts[next_random(vr) % verts.size()],
             verts[next_random(vr) % verts.size()]};
      }
      lf = ns_per_call(q, [&](size_t i) { (void)ap->length(pts[2 * i], pts[2 * i + 1]); });
      lc = ns_per_call(q, [&](size_t i) { (void)ap->length(corner[i].s, corner[i].t); });
      pf = ns_per_call(q, [&](size_t i) { (void)ap->path(pts[2 * i], pts[2 * i + 1]); });
      pc = ns_per_call(q, [&](size_t i) { (void)ap->path(corner[i].s, corner[i].t); });
    }
    rep.metric("query.length_us.free", lf / 1e3, "us");
    rep.metric("query.length_ns.corner", lc, "ns");
    rep.metric("query.path_us.free", pf / 1e3, "us");
    rep.metric("query.path_us.corner", pc / 1e3, "us");
  }

  // backend/boundary_tree: direct per-query cost and footprint. A scene
  // served from all-pairs tables gets a tree built here, so the layer is
  // measured on every workload, though only tree-backed serving uses it.
  {
    std::optional<Engine> tree_engine;
    const rsp::BoundaryTreeSP* t = bt;
    if (!t) {
      tree_engine.emplace(scene, rsp::EngineOptions{.backend = rsp::Backend::kBoundaryTree,
                                                    .num_threads = build_threads});
      t = tree_engine->boundary_tree();
    }
    const size_t q = std::min<size_t>(pool.size(), 16);
    const double lm = ns_per_call(q, [&](size_t i) { (void)t->length(pool[i].s, pool[i].t); });
    const double pm = ns_per_call(q, [&](size_t i) { (void)t->path(pool[i].s, pool[i].t); });
    const double res = static_cast<double>(t->memory_bytes());
    const double ratio = static_cast<double>(t->port_matrix_dense_bytes()) /
                         static_cast<double>(std::max<size_t>(1, t->port_matrix_bytes()));
    rep.metric("tree.length_ms", lm / 1e6, "ms");
    rep.metric("tree.path_ms", pm / 1e6, "ms");
    rep.metric("tree.resident_mb", res / 1e6, "MB");
    rep.metric("tree.port_ratio", ratio, "ratio");
  }

  std::cout << rep.json() << std::endl;
  return 0;
}

}  // namespace perfbench
