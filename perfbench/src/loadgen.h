#pragma once
// Open-loop TCP load generator.
//
// Arrivals are scheduled up front (absolute due times per connection), so a
// slow server never slows the offered load: a request is written when it is
// due whether or not earlier responses have come back. Latency is timed from
// the *intended* send time, so a stall shows in every request queued behind
// it (no coordinated omission). Each connection is driven by one thread that
// interleaves non-blocking writes of due requests with reads of responses;
// the server answers one line per request, in order, per connection.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// A distinct request the schedule can send: its wire payload (one or more
// '\n'-terminated lines) and its verb index (0 = LEN, 1 = PATH, 2 = BATCH).
struct Item {
  std::string payload;
  uint8_t verb = 0;
};

// One scheduled send: which item, and when (ns after the phase start).
struct Send {
  int64_t due_ns = 0;
  uint32_t item = 0;
};

// Judges one response line for an item; false counts the request failed.
// Called from the connection threads, so it must be thread-safe.
using Checker = std::function<bool(uint32_t item, std::string_view line)>;

constexpr int kVerbs = 3;

// One answered request.
struct Sample {
  int64_t due_ns = 0;      // intended send time, ns after the phase start
  int64_t latency_ns = 0;  // answer time - due time
  uint8_t verb = 0;
};

// The machine's cumulative steal time at one moment (ns after the phase
// start): CPU time the hypervisor gave to others while this machine's
// CPUs wanted to run.
struct StealSample {
  int64_t at_ns = 0;
  int64_t ticks = 0;  // clock ticks, as /proc/stat counts them
};

struct PhaseResult {
  std::vector<Sample> samples;  // every answer, sorted by due time
  // Steal time every 10 ms, sampled by connection 0's thread.
  std::vector<StealSample> steal;
  // Enqueue lag of every send: how late the generator got to it.
  std::vector<int64_t> lag_ns;
  uint64_t scheduled = 0;  // requests the schedule held
  uint64_t sent = 0;
  uint64_t answered = 0;
  uint64_t failed = 0;     // wrong answer, ERR line, or no answer in time
  uint64_t timed_out = 0;  // subset of failed: never answered
  // Requests due by the phase's last due time but unanswered at that time.
  uint64_t backlog_end = 0;
  // When the first and the last request were actually written (ns after
  // the phase start): their spread gives the rate the generator achieved.
  int64_t first_send_ns = -1;
  int64_t last_send_ns = -1;
};

class LoadGen {
 public:
  // Connects `connections` TCP sessions to 127.0.0.1:port. Throws on
  // connect failure.
  LoadGen(uint16_t port, size_t connections, const std::vector<Item>* items,
          Checker check);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  size_t connections() const { return fds_.size(); }

  // Runs one phase: schedule[c] is connection c's sends, sorted by due
  // time. Waits up to drain_ns after the last due time for answers;
  // requests still unanswered then count as timed out, and their
  // connection is replaced so later phases start in sync. The calling
  // thread drives connection 0; one extra thread per further connection.
  PhaseResult run(const std::vector<std::vector<Send>>& schedule,
                  int64_t drain_ns);

 private:
  struct ConnResult;
  void drive(size_t c, const std::vector<Send>& sends, int64_t t0_ns,
             int64_t drain_ns, ConnResult& out);
  void reconnect(size_t c);

  uint16_t port_;
  const std::vector<Item>* items_;
  Checker check_;
  std::vector<int> fds_;
};

// A TCP session to 127.0.0.1:port with TCP_NODELAY and quick ACKs. Throws
// on connect failure.
int connect_local(uint16_t port);

// Monotonic clock in ns.
int64_t now_ns();

// Cumulative steal time in clock ticks ("steal" in /proc/stat); -1 where
// the system does not report it.
int64_t read_steal_ticks();

// The samples due outside host stalls. A host stall is a rise in steal
// time: the hypervisor stopped this machine's CPUs, whatever ran on them.
// Steal time does not grow with the CPU that the servers or the client use
// inside the machine, so a server that burns more CPU is not taken for a
// host stall. A rise between two steal samples marks the samples due from
// 20 ms before the first to 50 ms after the second (requests in flight
// when the stall began, and the backlog draining after it). `share`
// receives the fraction left out. When stalls cover more than nine tenths
// of the samples, every sample is kept.
std::vector<Sample> outside_steal(const std::vector<Sample>& samples,
                                  const std::vector<StealSample>& steal,
                                  double* share);

// Value at quantile q (0..1) of `v` (sorted in place); 0 when empty.
double quantile(std::vector<int64_t>& v, double q);

// Latency summary of the samples of one verb (-1 = all verbs). p99 needs
// 1000 samples to keep 10 beyond it; on fewer, the quantile drops to the
// highest that does (`q`).
struct Tail {
  size_t count = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double q = 0.99;
};
Tail tail(const std::vector<Sample>& samples, int verb);

// Arrivals evenly paced at `rate` per second over [0, duration_ns) (the
// first at a seeded offset within one gap), dealt round-robin over
// `connections`; the item of each is drawn by `pick`.
std::vector<std::vector<Send>> paced_schedule(
    double rate, int64_t duration_ns, size_t connections, uint64_t seed,
    const std::function<uint32_t(uint64_t& rng)>& pick);

// splitmix64 step, the benchmark's one random source.
uint64_t next_random(uint64_t& state);
double next_unit(uint64_t& state);  // uniform in [0, 1)

}  // namespace perfbench
