#include "workload.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "io/gen.h"
#include "serve/protocol.h"

namespace perfbench {

using rsp::Length;
using rsp::Point;
using rsp::PointPair;

std::vector<PointPair> make_pool(const rsp::Scene& scene, const Mix& mix,
                                 uint64_t seed) {
  const std::vector<Point> free_pts =
      rsp::random_free_points(scene, 2 * mix.pool, seed + 17);

  // Corner set: `corners` obstacle vertices picked once per scene (not per
  // seed, so every seed sees the same hot set); rank r is drawn with
  // probability proportional to 1 / (r + 1) (Zipf, s = 1).
  uint64_t rng = 0x5EEDF00Dull;
  std::vector<Point> corners = scene.obstacle_vertices();
  for (size_t i = 0; i + 1 < corners.size(); ++i) {
    const size_t j = i + next_random(rng) % (corners.size() - i);
    std::swap(corners[i], corners[j]);
  }
  rng = seed ^ 0x5EEDF00Dull;
  corners.resize(std::min(corners.size(), mix.corners));
  std::vector<double> cdf(corners.size());
  double acc = 0;
  for (size_t r = 0; r < corners.size(); ++r) {
    acc += 1.0 / static_cast<double>(r + 1);
    cdf[r] = acc;
  }
  auto endpoint = [&](size_t k) {
    if (corners.empty() || next_unit(rng) >= mix.corner_frac) {
      return free_pts[k];
    }
    const double u = next_unit(rng) * acc;
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return corners[std::min(r, corners.size() - 1)];
  };
  std::vector<PointPair> pool(mix.pool);
  for (size_t i = 0; i < mix.pool; ++i) {
    pool[i].s = endpoint(2 * i);
    pool[i].t = endpoint(2 * i + 1);
  }
  return pool;
}

std::vector<PointPair> compute_expected(const rsp::Engine& eng,
                                        std::vector<PointPair> pool,
                                        Expected& out) {
  // Drop pairs the engine refuses (one bad pair fails a whole batch).
  std::vector<PointPair> kept;
  for (const PointPair& p : pool) {
    if (p.s != p.t && eng.scene().point_free(p.s) &&
        eng.scene().point_free(p.t)) {
      kept.push_back(p);
    }
  }
  auto lens = eng.lengths(kept);
  auto paths = eng.paths(kept);
  if (!lens.ok() || !paths.ok()) {
    throw std::runtime_error("oracle engine refused the pool: " +
                             (lens.ok() ? paths.status() : lens.status())
                                 .message());
  }
  out.len = std::move(*lens);
  out.path = std::move(*paths);
  return kept;
}

std::optional<std::string> check_path(const rsp::Scene& scene, const Point& s,
                                      const Point& t,
                                      const std::vector<Point>& path,
                                      Length want_len) {
  if (path.empty()) return "empty path";
  if (path.front() != s) return "path does not start at s";
  if (path.back() != t) return "path does not end at t";
  Length sum = 0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const Point& a = path[i];
    const Point& b = path[i + 1];
    if (a.x != b.x && a.y != b.y) return "leg " + std::to_string(i) +
                                         " is not axis-parallel";
    sum += rsp::dist1(a, b);
  }
  if (!scene.path_free(path)) return "path crosses an obstacle or leaves P";
  if (sum != want_len) {
    return "path length " + std::to_string(sum) + " != expected " +
           std::to_string(want_len);
  }
  return std::nullopt;
}

std::optional<std::vector<Point>> parse_path_line(std::string_view line) {
  if (line.substr(0, 2) != "OK") return std::nullopt;
  std::vector<Point> pts;
  size_t i = 2;
  auto num = [&](rsp::Coord& v) {
    const char* b = line.data() + i;
    const char* e = line.data() + line.size();
    auto [p, ec] = std::from_chars(b, e, v);
    if (ec != std::errc()) return false;
    i += static_cast<size_t>(p - b);
    return true;
  };
  auto lit = [&](char c) {
    if (i >= line.size() || line[i] != c) return false;
    ++i;
    return true;
  };
  while (i < line.size()) {
    Point p;
    if (!lit(' ') || !lit('(') || !num(p.x) || !lit(',') || !num(p.y) ||
        !lit(')')) {
      return std::nullopt;
    }
    pts.push_back(p);
  }
  return pts;
}

namespace {

std::string pair_line(const PointPair& p) {
  return std::to_string(p.s.x) + "," + std::to_string(p.s.y) + " " +
         std::to_string(p.t.x) + "," + std::to_string(p.t.y);
}

}  // namespace

ItemSet make_items(const std::vector<PointPair>& pool, const Expected& want,
                   const Mix& mix, size_t batches, uint64_t seed) {
  ItemSet set;
  const size_t n = pool.size();
  set.num_pairs = n;
  for (size_t i = 0; i < n; ++i) {
    set.items.push_back({"LEN " + pair_line(pool[i]) + "\n", 0});
    set.expect.push_back(rsp::format_length(want.len[i]));
    set.pair_of.push_back(static_cast<uint32_t>(i));
  }
  for (size_t i = 0; i < n; ++i) {
    set.items.push_back({"PATH " + pair_line(pool[i]) + "\n", 1});
    set.expect.push_back(rsp::format_path(want.path[i]));
    set.pair_of.push_back(static_cast<uint32_t>(i));
  }
  if (mix.batch > 0) {
    uint64_t rng = seed ^ 0xBA7C4ull;
    const size_t k = std::min(mix.batch_k, n);
    set.num_batches = batches;
    for (size_t b = 0; b < batches; ++b) {
      const size_t first = next_random(rng) % n;
      std::string payload = "BATCH " + std::to_string(k) + "\n";
      std::vector<Length> lens;
      for (size_t j = 0; j < k; ++j) {
        const size_t i = (first + j) % n;
        payload += pair_line(pool[i]) + "\n";
        lens.push_back(want.len[i]);
      }
      set.items.push_back({std::move(payload), 2});
      set.expect.push_back(rsp::format_batch(lens));
      set.pair_of.push_back(static_cast<uint32_t>(first));
    }
  }
  return set;
}

uint32_t pick_item(const ItemSet& set, const Mix& mix, uint64_t& rng) {
  const double u = next_unit(rng);
  const size_t n = set.num_pairs;
  if (u < mix.len) return static_cast<uint32_t>(next_random(rng) % n);
  if (u < mix.len + mix.path || set.num_batches == 0) {
    return static_cast<uint32_t>(n + next_random(rng) % n);
  }
  return static_cast<uint32_t>(2 * n + next_random(rng) % set.num_batches);
}

}  // namespace perfbench
