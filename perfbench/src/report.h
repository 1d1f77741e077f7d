#pragma once
// Flat JSON object builder for the benchmark programs' one-line output.

#include <cmath>
#include <cstdio>
#include <string>

namespace perfbench {

class Report {
 public:
  void num(const std::string& key, double v) { raw(key, number(v)); }
  // {"value": v, "unit": "u"}: one metric of the benchmark's result.
  void metric(const std::string& key, double v, const std::string& unit) {
    raw(key, "{\"value\": " + number(v) + ", \"unit\": \"" + unit + "\"}");
  }
  void flag(const std::string& key, bool v) { raw(key, v ? "true" : "false"); }
  void str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) q += c;
    }
    raw(key, q + "\"");
  }
  void raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  static std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
    return buf;
  }
  std::string body_;
};

}  // namespace perfbench
