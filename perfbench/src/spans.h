#pragma once
// In-memory span recorder for the traced replay. A span is one call into a
// layer: name (the layer), start, end, parent span and request id. Spans are
// kept in memory and written out once at the end; a layer's self time is
// its spans' durations minus the part covered by their child spans.
// Single-threaded: the replay records from one thread.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the span list, -1 for a root
  int64_t request = -1;  // replayed request id, -1 when not per request
};

class Spans {
 public:
  // Opens a span under the innermost open one; closes on destruction.
  class Scope {
   public:
    Scope(Spans& s, std::string name, int64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& s_;
    int32_t id_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  // Self time per span name, ns.
  std::map<std::string, int64_t> self_ns() const;
  // Writes the spans as a JSON array.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

}  // namespace perfbench
