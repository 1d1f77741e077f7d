#pragma once
// "--name value" flag scanning for the benchmark's C++ programs.

#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

namespace perfbench {

class Flags {
 public:
  Flags(int argc, char** argv, int start) {
    for (int i = start; i + 1 < argc; i += 2) {
      std::string k = argv[i];
      if (k.rfind("--", 0) != 0) throw std::runtime_error("bad flag " + k);
      vals_[k.substr(2)] = argv[i + 1];
    }
  }
  std::string str(const std::string& k) const {
    auto it = vals_.find(k);
    if (it == vals_.end()) throw std::runtime_error("missing --" + k);
    return it->second;
  }
  double num(const std::string& k) const { return std::stod(str(k)); }
  bool has(const std::string& k) const { return vals_.count(k) > 0; }

 private:
  std::map<std::string, std::string> vals_;
};

}  // namespace perfbench
