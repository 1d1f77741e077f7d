// The benchmark's own tests: the PATH checker rejects every kind of bad
// path, the open-loop client charges a server stall to every request queued
// behind it, only host stalls (steal time) leave the tail, a server that
// burns every core still shows in the p99, and span self times subtract
// their children.
//
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/perfbench_selftest

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>

#include "api/engine.h"
#include "loadgen.h"
#include "spans.h"
#include "workload.h"

namespace {

using namespace perfbench;
using rsp::Point;

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

// One 20x20 obstacle in the middle of a 100x100 container: from (10,50) to
// (90,50) the shortest path detours 10 up and 10 down, length 100.
void test_path_checker() {
  rsp::Scene scene({rsp::Rect{40, 40, 60, 60}},
                   rsp::RectilinearPolygon::rectangle(rsp::Rect{0, 0, 100, 100}));
  const Point s{10, 50}, t{90, 50};
  rsp::Engine eng(scene);
  auto len = eng.length(s, t);
  auto path = eng.path(s, t);
  CHECK(len.ok() && *len == 100);
  CHECK(path.ok() && !check_path(scene, s, t, *path, *len));

  const std::vector<Point> around = {{10, 50}, {10, 60}, {90, 60}, {90, 50}};
  CHECK(!check_path(scene, s, t, around, 100));
  // Straight through the obstacle.
  CHECK(check_path(scene, s, t, {{10, 50}, {90, 50}}, 80));
  // A diagonal leg.
  CHECK(check_path(scene, s, t, {{10, 50}, {90, 60}, {90, 50}}, 100));
  // Wrong endpoints, either end.
  CHECK(check_path(scene, s, t, {{11, 50}, {11, 60}, {90, 60}, {90, 50}}, 100));
  CHECK(check_path(scene, s, t, {{10, 50}, {10, 60}, {90, 60}, {90, 51}}, 100));
  // Obstacle-free and rectilinear, but longer than the shortest path.
  CHECK(check_path(scene, s, t, {{10, 50}, {10, 70}, {90, 70}, {90, 50}}, 100));

  // The wire form round-trips through the response parser.
  auto parsed = parse_path_line("OK (10,50) (10,60) (90,60) (90,50)");
  CHECK(parsed && *parsed == around);
  CHECK(!parse_path_line("OK (10,50) (10,60"));
  CHECK(!parse_path_line("ERR INVALID_QUERY source inside obstacle"));
}

// A one-connection line server answering "OK 1" to every line. Before each
// answer it calls `work` with the time since the first request.
class LineServer {
 public:
  explicit LineServer(std::function<void(int64_t since_first_ns)> work) {
    lfd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(lfd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::listen(lfd_, 1);
    socklen_t len = sizeof addr;
    ::getsockname(lfd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, work = std::move(work)] {
      const int fd = ::accept(lfd_, nullptr, nullptr);
      char buf[4096];
      int64_t first = -1;
      while (true) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) break;
        std::string out;
        for (ssize_t i = 0; i < n; ++i) {
          if (buf[i] != '\n') continue;
          const int64_t now = now_ns();
          if (first < 0) first = now;
          work(now - first);
          out += "OK 1\n";
        }
        (void)!::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      }
      ::close(fd);
    });
  }
  ~LineServer() {
    thread_.join();
    ::close(lfd_);
  }
  uint16_t port() const { return port_; }

 private:
  int lfd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

// Open loop: a 100 ms stall must show in the latency of every request due
// during it, decreasing from ~100 ms — not in one request, as a closed loop
// that waits for each answer would report it.
void test_stall_reaches_queued_requests() {
  constexpr int kStallAt = 300, kStall = 100;
  constexpr double kRate = 2000;
  std::vector<int64_t> lat;
  std::vector<int64_t> lag;
  double p99_ms = 0;
  {
    // Stops reading and answering for kStall ms once kStallAt ms have
    // passed since the first request.
    bool stalled = false;
    LineServer server([&](int64_t since_first_ns) {
      if (!stalled && since_first_ns >= kStallAt * 1'000'000ll) {
        stalled = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(kStall));
      }
    });
    std::vector<Item> items = {{"LEN 1,1 2,2\n", 0}};
    LoadGen lg(server.port(), 1, &items,
               [](uint32_t, std::string_view line) { return line == "OK 1"; });
    PhaseResult r = lg.run(
        paced_schedule(kRate, 1'000'000'000, 1, 1,
                       [](uint64_t&) { return uint32_t{0}; }),
        2'000'000'000);
    CHECK(r.failed == 0);
    CHECK(r.answered == r.sent);
    p99_ms = tail(r.samples, -1).p99_ms;
    for (const Sample& x : r.samples) lat.push_back(x.latency_ns);
    lag = r.lag_ns;
  }
  const double max_ms = static_cast<double>(*std::max_element(lat.begin(), lat.end())) / 1e6;
  // Requests due in the stall's first half waited at least half of it.
  const auto slow = std::count_if(lat.begin(), lat.end(), [](int64_t ns) {
    return ns >= kStall * 1'000'000ll / 2;
  });
  const double want_slow = kRate * kStall / 2 / 1e3;
  std::printf("stall: max %.1f ms, %ld requests >= %d ms (want ~%.0f), "
              "p50 %.3f ms, lag p99 %.3f ms\n",
              max_ms, static_cast<long>(slow), kStall / 2, want_slow,
              quantile(lat, 0.5) / 1e6, quantile(lag, 0.99) / 1e6);
  CHECK(max_ms >= 0.9 * kStall);
  // A tenth of the requests waited for the stall: it sets the p99.
  CHECK(p99_ms >= kStall / 2.0);
  CHECK(static_cast<double>(slow) >= 0.8 * want_slow);
  CHECK(quantile(lat, 0.5) / 1e6 < kStall / 10.0);
}

// A server that burns CPU on every core slows each answer by 3 ms and
// competes with the generator for the CPU, yet takes no CPU from the
// machine as a whole: no steal time, so its answers stay in the tail and
// the p99 shows the slowdown.
void test_cpu_burn_stays_in_tail() {
  constexpr int64_t kBurnNs = 3'000'000;
  auto spin = [](int64_t ns) {
    const int64_t end = now_ns() + ns;
    while (now_ns() < end) {
    }
  };
  std::atomic<bool> done{false};
  std::vector<std::thread> burners;
  for (unsigned i = 1; i < std::max(2u, std::thread::hardware_concurrency()); ++i) {
    burners.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) spin(1'000'000);
    });
  }
  PhaseResult r;
  {
    LineServer server([&](int64_t) { spin(kBurnNs); });
    std::vector<Item> items = {{"LEN 1,1 2,2\n", 0}};
    LoadGen lg(server.port(), 1, &items,
               [](uint32_t, std::string_view line) { return line == "OK 1"; });
    r = lg.run(paced_schedule(200, 1'000'000'000, 1, 2,
                              [](uint64_t&) { return uint32_t{0}; }),
               2'000'000'000);
  }
  done = true;
  for (auto& t : burners) t.join();
  double stolen = 0;
  const Tail t = tail(outside_steal(r.samples, r.steal, &stolen), -1);
  std::printf("cpu burn: p50 %.2f ms, p99 %.2f ms, lag p99 %.2f ms, "
              "steal share %.3f\n",
              t.p50_ms, t.p99_ms, quantile(r.lag_ns, 0.99) / 1e6, stolen);
  CHECK(r.failed == 0);
  CHECK(!r.steal.empty());
  CHECK(stolen < 0.5);
  CHECK(t.p99_ms >= kBurnNs / 1e6);
}

// Samples due near a rise in steal time leave the tail; others stay.
void test_steal_windows() {
  std::vector<Sample> s;
  for (int64_t ms = 0; ms < 1000; ms += 5) s.push_back({ms * 1'000'000, 100'000, 0});
  std::vector<StealSample> steal;
  for (int64_t ms = 0; ms <= 1000; ms += 10) steal.push_back({ms * 1'000'000, 7});
  double share = 0;
  CHECK(outside_steal(s, steal, &share).size() == s.size() && share == 0);
  // A tick between 300 and 310 ms marks due times in [280, 360].
  for (size_t i = 31; i < steal.size(); ++i) steal[i].ticks = 8;
  const auto kept = outside_steal(s, steal, &share);
  CHECK(kept.size() == s.size() - 17);
  for (const Sample& x : kept) CHECK(x.due_ns < 280'000'000 || x.due_ns > 360'000'000);
  // Unknown steal time (-1) marks nothing.
  for (auto& x : steal) x.ticks = -1;
  CHECK(outside_steal(s, steal, &share).size() == s.size());
  // A tick every 100 ms marks 80 of each 100 ms: 41 of 200 samples stay.
  for (size_t i = 0; i < steal.size(); ++i) steal[i].ticks = static_cast<int64_t>(i / 10);
  CHECK(outside_steal(s, steal, &share).size() == 41 && share > 0.79);
  // Stalls over more than nine tenths of the samples: nothing is left out.
  for (size_t i = 0; i < steal.size(); ++i) steal[i].ticks = static_cast<int64_t>(i);
  CHECK(outside_steal(s, steal, &share).size() == s.size() && share == 0);
}

void test_span_self_time() {
  Spans sp;
  {
    Spans::Scope outer(sp, "outer", 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Spans::Scope inner(sp, "inner", 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  const auto self = sp.self_ns();
  CHECK(sp.spans().size() == 2 && sp.spans()[1].parent == 0);
  CHECK(self.at("inner") >= 30'000'000);
  // The child's 30 ms come off the parent's 50+ ms.
  CHECK(self.at("outer") >= 20'000'000 && self.at("outer") < 45'000'000);
}

}  // namespace

int main() {
  test_path_checker();
  test_stall_reaches_queued_requests();
  test_steal_windows();
  test_cpu_burn_stays_in_tail();
  test_span_self_time();
  std::printf("%s (%d failed checks)\n", failures ? "FAIL" : "PASS", failures);
  return failures ? 1 : 0;
}
