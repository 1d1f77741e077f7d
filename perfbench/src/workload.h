#pragma once
// Workload inputs and answer checking, shared by the load client and the
// traced replay: the query pool drawn from the seed, the wire requests built
// from it, the expected answers from an in-process Engine, and the PATH
// validator.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/engine.h"
#include "loadgen.h"

namespace perfbench {

// Traffic shape of one workload (perfbench/workloads.json).
struct Mix {
  double len = 1, path = 0, batch = 0;  // request shares, summing to 1
  size_t batch_k = 32;                  // pairs per BATCH request
  double corner_frac = 0;  // share of endpoints drawn from obstacle corners
  size_t corners = 256;    // distinct corners, Zipf-ranked
  size_t pool = 4096;      // distinct query pairs
};

// Query pairs for the workload: each endpoint is a uniform random free
// point or (with probability corner_frac) an obstacle corner drawn
// Zipf-skewed from `corners` corners fixed per scene. Deterministic in
// (scene, mix, seed).
std::vector<rsp::PointPair> make_pool(const rsp::Scene& scene, const Mix& mix,
                                      uint64_t seed);

// Expected answers for the pool, from an in-process engine.
struct Expected {
  std::vector<rsp::Length> len;
  std::vector<std::vector<rsp::Point>> path;
};
// Computes lengths and paths for `pool`, dropping pairs the engine refuses
// (so no request of the workload fails by design). Returns the kept pool.
std::vector<rsp::PointPair> compute_expected(const rsp::Engine& eng,
                                             std::vector<rsp::PointPair> pool,
                                             Expected& out);

// Checks a PATH answer: starts at s, ends at t, every leg axis-parallel,
// every leg obstacle-free (Scene::path_free), L1 sum == want_len. Returns
// the first violation, or nullopt for a valid path.
std::optional<std::string> check_path(const rsp::Scene& scene,
                                      const rsp::Point& s, const rsp::Point& t,
                                      const std::vector<rsp::Point>& path,
                                      rsp::Length want_len);

// Parses a PATH response line "OK (x,y) (x,y) ..."; nullopt if malformed.
std::optional<std::vector<rsp::Point>> parse_path_line(std::string_view line);

// The wire items for a pool: LEN i and PATH i for every pair i, then
// `batches` BATCH requests over consecutive pool pairs starting at seeded
// offsets. `expect[i]` is the exact expected response of item i.
struct ItemSet {
  std::vector<Item> items;
  std::vector<std::string> expect;
  std::vector<uint32_t> pair_of;  // LEN/PATH: pool index; BATCH: first index
  size_t num_pairs = 0;           // LEN items are [0, n), PATH [n, 2n)
  size_t num_batches = 0;         // BATCH items are [2n, 2n + batches)
};
ItemSet make_items(const std::vector<rsp::PointPair>& pool,
                   const Expected& want, const Mix& mix, size_t batches,
                   uint64_t seed);

// Draws one item id according to the mix.
uint32_t pick_item(const ItemSet& set, const Mix& mix, uint64_t& rng);

}  // namespace perfbench
