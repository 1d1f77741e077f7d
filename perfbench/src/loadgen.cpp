#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <stdexcept>
#include <thread>

namespace perfbench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<int64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) +
         static_cast<double>(v[hi]) * frac;
}

Tail tail(const std::vector<Sample>& samples, int verb) {
  std::vector<int64_t> lat;
  for (const Sample& s : samples) {
    if (verb < 0 || s.verb == verb) lat.push_back(s.latency_ns);
  }
  Tail t;
  t.count = lat.size();
  t.q = std::min(0.99, 1.0 - 10.0 / static_cast<double>(std::max<size_t>(lat.size(), 20)));
  t.p99_ms = quantile(lat, t.q) / 1e6;
  t.p50_ms = quantile(lat, 0.5) / 1e6;
  return t;
}

int64_t read_steal_ticks() {
  const int fd = ::open("/proc/stat", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return -1;
  char buf[512];
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return -1;
  buf[n] = 0;
  // "cpu  user nice system idle iowait irq softirq steal ..."
  long long v[8];
  if (std::sscanf(buf, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 8) {
    return -1;
  }
  return v[7];
}

std::vector<Sample> outside_steal(const std::vector<Sample>& samples,
                                  const std::vector<StealSample>& steal,
                                  double* share) {
  constexpr int64_t kBefore = 20'000'000, kAfter = 50'000'000;
  std::vector<std::pair<int64_t, int64_t>> stalls;
  for (size_t i = 1; i < steal.size(); ++i) {
    if (steal[i - 1].ticks >= 0 && steal[i].ticks > steal[i - 1].ticks) {
      stalls.push_back({steal[i - 1].at_ns - kBefore, steal[i].at_ns + kAfter});
    }
  }
  std::vector<Sample> out;
  size_t k = 0;
  for (const Sample& s : samples) {
    while (k < stalls.size() && stalls[k].second < s.due_ns) ++k;
    if (k < stalls.size() && stalls[k].first <= s.due_ns) continue;
    out.push_back(s);
  }
  if (10 * out.size() < samples.size()) out = samples;
  *share = samples.empty() ? 0
                           : 1.0 - static_cast<double>(out.size()) /
                                       static_cast<double>(samples.size());
  return out;
}

uint64_t next_random(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double next_unit(uint64_t& state) {
  return static_cast<double>(next_random(state) >> 11) * 0x1.0p-53;
}

std::vector<std::vector<Send>> paced_schedule(
    double rate, int64_t duration_ns, size_t connections, uint64_t seed,
    const std::function<uint32_t(uint64_t& rng)>& pick) {
  std::vector<std::vector<Send>> out(connections);
  uint64_t rng = seed;
  const double gap_ns = 1e9 / rate;
  size_t c = 0;
  for (double t = next_unit(rng) * gap_ns; t < static_cast<double>(duration_ns);
       t += gap_ns) {
    out[c].push_back({static_cast<int64_t>(t), pick(rng)});
    c = (c + 1) % connections;
  }
  return out;
}

namespace {

// ACK at once instead of delaying the ACK to ride on the next request. The
// servers write responses without TCP_NODELAY, so Nagle holds a response
// until the previous one is acknowledged; with delayed ACKs every answer
// would wait for the client's next send, and latency would measure the
// client's send gap instead of the server. Linux clears the flag after
// use, so it is re-armed after every read.
void quick_ack(int fd) {
#ifdef TCP_QUICKACK
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
#else
  (void)fd;
#endif
}

}  // namespace

int connect_local(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to port " + std::to_string(port) +
                             " failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  quick_ack(fd);
  return fd;
}

struct LoadGen::ConnResult {
  PhaseResult r;
  bool desynced = false;
};

LoadGen::LoadGen(uint16_t port, size_t connections,
                 const std::vector<Item>* items, Checker check)
    : port_(port), items_(items), check_(std::move(check)) {
  for (size_t c = 0; c < connections; ++c) fds_.push_back(connect_local(port));
}

LoadGen::~LoadGen() {
  for (int fd : fds_) {
    // Say goodbye so the server ends the session cleanly.
    (void)!::send(fd, "QUIT\n", 5, MSG_NOSIGNAL);
    ::shutdown(fd, SHUT_WR);
    ::close(fd);
  }
}

void LoadGen::reconnect(size_t c) {
  ::close(fds_[c]);
  fds_[c] = connect_local(port_);
}

PhaseResult LoadGen::run(const std::vector<std::vector<Send>>& schedule,
                         int64_t drain_ns) {
  std::vector<ConnResult> parts(fds_.size());
  // A common start a little in the future, so every thread is up and
  // waiting when the first request falls due.
  const int64_t t0 = now_ns() + 2'000'000;
  std::vector<std::thread> threads;
  for (size_t c = 1; c < fds_.size(); ++c) {
    threads.emplace_back([&, c] {
      drive(c, schedule[c], t0, drain_ns, parts[c]);
    });
  }
  drive(0, schedule[0], t0, drain_ns, parts[0]);
  for (auto& t : threads) t.join();

  PhaseResult all;
  for (size_t c = 0; c < parts.size(); ++c) {
    PhaseResult& r = parts[c].r;
    all.samples.insert(all.samples.end(), r.samples.begin(), r.samples.end());
    all.steal.insert(all.steal.end(), r.steal.begin(), r.steal.end());
    all.lag_ns.insert(all.lag_ns.end(), r.lag_ns.begin(), r.lag_ns.end());
    all.scheduled += r.scheduled;
    all.sent += r.sent;
    all.answered += r.answered;
    all.failed += r.failed;
    all.timed_out += r.timed_out;
    all.backlog_end += r.backlog_end;
    if (r.first_send_ns >= 0) {
      all.first_send_ns = all.first_send_ns < 0
                              ? r.first_send_ns
                              : std::min(all.first_send_ns, r.first_send_ns);
      all.last_send_ns = std::max(all.last_send_ns, r.last_send_ns);
    }
    if (parts[c].desynced) reconnect(c);
  }
  std::sort(all.samples.begin(), all.samples.end(),
            [](const Sample& a, const Sample& b) { return a.due_ns < b.due_ns; });
  return all;
}

void LoadGen::drive(size_t c, const std::vector<Send>& sends, int64_t t0,
                    int64_t drain_ns, ConnResult& out) {
  const int fd = fds_[c];
  PhaseResult& r = out.r;
  r.scheduled = sends.size();
  r.lag_ns.reserve(sends.size());
  struct Flight {
    uint32_t item;
    int64_t due;
  };
  std::deque<Flight> flight;
  std::string outbuf;
  size_t outoff = 0;
  std::string inbuf;
  char chunk[1 << 16];
  size_t next = 0;
  const int64_t last_due = sends.empty() ? 0 : sends.back().due_ns;
  const int64_t deadline = t0 + last_due + drain_ns;
  bool backlog_taken = sends.empty();
  constexpr int64_t kStealEvery = 10'000'000;
  int64_t next_steal = t0;

  while (next < sends.size() || !flight.empty()) {
    int64_t now = now_ns();
    if (c == 0 && now >= next_steal) {
      r.steal.push_back({now - t0, read_steal_ticks()});
      next_steal = now + kStealEvery;
    }
    if (!backlog_taken && now - t0 >= last_due) {
      // Everything is due: what is still unanswered is the backlog.
      r.backlog_end = flight.size() + (sends.size() - next);
      backlog_taken = true;
    }
    if (now >= deadline) break;
    // Enqueue every request that is due.
    while (next < sends.size() && t0 + sends[next].due_ns <= now) {
      const Send& s = sends[next++];
      outbuf += (*items_)[s.item].payload;
      flight.push_back({s.item, t0 + s.due_ns});
      r.lag_ns.push_back(now - (t0 + s.due_ns));
      if (r.sent++ == 0) r.first_send_ns = now - t0;
      r.last_send_ns = now - t0;
    }
    // Write what the socket takes.
    while (outoff < outbuf.size()) {
      const ssize_t n = ::send(fd, outbuf.data() + outoff,
                               outbuf.size() - outoff,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n <= 0) break;
      outoff += static_cast<size_t>(n);
    }
    if (outoff == outbuf.size()) {
      outbuf.clear();
      outoff = 0;
    } else if (outoff > (1 << 20)) {
      outbuf.erase(0, outoff);
      outoff = 0;
    }
    // Read what has arrived.
    bool got = false, closed = false;
    while (true) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR)) {
        closed = true;
      }
      if (n <= 0) break;
      got = true;
      inbuf.append(chunk, static_cast<size_t>(n));
    }
    if (closed && !got) break;  // the server hung up: the rest is lost
    if (got) {
      const int64_t t_recv = now_ns();
      quick_ack(fd);
      size_t start = 0;
      while (true) {
        const size_t nl = inbuf.find('\n', start);
        if (nl == std::string::npos) break;
        std::string_view line(inbuf.data() + start, nl - start);
        start = nl + 1;
        if (flight.empty()) {  // an answer nobody asked for
          ++r.failed;
          continue;
        }
        const Flight f = flight.front();
        flight.pop_front();
        ++r.answered;
        r.samples.push_back(
            {f.due - t0, t_recv - f.due, (*items_)[f.item].verb});
        if (!check_(f.item, line)) ++r.failed;
      }
      inbuf.erase(0, start);
      continue;  // more may be ready; re-check the schedule first
    }
    // Sleep until the next send falls due, the socket is readable, or
    // (with a write backlog) writable again.
    now = now_ns();
    int64_t wait = deadline - now;
    if (next < sends.size()) wait = std::min(wait, t0 + sends[next].due_ns - now);
    if (c == 0) wait = std::min(wait, next_steal - now);
    if (wait <= 0) continue;
    pollfd p{fd, static_cast<short>(POLLIN | (outbuf.empty() ? 0 : POLLOUT)),
             0};
    timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                static_cast<long>(wait % 1'000'000'000)};
    ::ppoll(&p, 1, &ts, nullptr);
  }
  if (!backlog_taken) r.backlog_end = flight.size() + (sends.size() - next);
  // Requests never sent or never answered by the deadline.
  const uint64_t lost = flight.size() + (sends.size() - next);
  r.timed_out += lost;
  r.failed += lost;
  out.desynced = lost > 0;
}

}  // namespace perfbench
