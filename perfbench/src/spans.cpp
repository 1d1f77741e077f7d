#include "spans.h"

#include <fstream>

#include "loadgen.h"

namespace perfbench {

Spans::Scope::Scope(Spans& s, std::string name, int64_t request)
    : s_(s), id_(static_cast<int32_t>(s.spans_.size())) {
  s_.spans_.push_back({std::move(name), now_ns(), 0, s_.open_, request});
  s_.open_ = id_;
}

Spans::Scope::~Scope() {
  s_.spans_[id_].end_ns = now_ns();
  s_.open_ = s_.spans_[id_].parent;
}

std::map<std::string, int64_t> Spans::self_ns() const {
  std::map<std::string, int64_t> out;
  for (const Span& sp : spans_) out[sp.name] += sp.end_ns - sp.start_ns;
  for (const Span& sp : spans_) {
    if (sp.parent >= 0) {
      out[spans_[sp.parent].name] -= sp.end_ns - sp.start_ns;
    }
  }
  return out;
}

bool Spans::write_json(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  os << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    os << "  {\"id\": " << i << ", \"name\": \"" << sp.name
       << "\", \"start_ns\": " << sp.start_ns << ", \"end_ns\": " << sp.end_ns
       << ", \"parent\": " << sp.parent << ", \"request\": " << sp.request
       << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return os.good();
}

}  // namespace perfbench
