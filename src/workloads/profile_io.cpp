#include "workloads/profile_io.hpp"

#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "common/parse.hpp"

namespace ssm {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& msg) {
  throw DataError("profile line " + std::to_string(line_no) + ": " + msg);
}

/// `text` as a T: the whole token, in range and finite (common/parse.hpp).
template <class T>
T number(const std::string& key, const std::string& text, std::size_t line_no) {
  const auto value = parseNumber<T>(text);
  if (!value) fail(line_no, "bad numeric value " + key + "='" + text + "'");
  return *value;
}

/// Splits "key=value key=value ..." into a map; throws on duplicates.
std::map<std::string, std::string> parsePairs(const std::string& rest,
                                              std::size_t line_no) {
  std::map<std::string, std::string> out;
  std::istringstream ss(rest);
  std::string token;
  while (ss >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size())
      fail(line_no, "expected key=value, got '" + token + "'");
    if (!out.emplace(token.substr(0, eq), token.substr(eq + 1)).second)
      fail(line_no, "duplicate key '" + token.substr(0, eq) + "'");
  }
  return out;
}

template <class T>
T require(const std::map<std::string, std::string>& kv,
          const std::string& key, std::size_t line_no) {
  const auto it = kv.find(key);
  if (it == kv.end()) fail(line_no, "missing key '" + key + "'");
  return number<T>(key, it->second, line_no);
}

}  // namespace

std::vector<KernelProfile> parseProfiles(std::istream& is) {
  std::vector<KernelProfile> kernels;
  KernelProfile current;
  bool in_kernel = false;
  std::string line;
  std::size_t line_no = 0;

  while (std::getline(is, line)) {
    ++line_no;
    // Strip comments and whitespace-only lines.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ss(line);
    std::string keyword;
    if (!(ss >> keyword)) continue;

    if (keyword == "kernel") {
      if (in_kernel) fail(line_no, "previous kernel not closed with 'end'");
      current = KernelProfile{};
      if (!(ss >> current.name)) fail(line_no, "kernel needs a name");
      if (!(ss >> current.suite)) current.suite = "custom";
      in_kernel = true;
    } else if (!in_kernel) {
      fail(line_no, "'" + keyword + "' outside a kernel block");
    } else if (keyword == "warps_per_cluster" || keyword == "phase_loops") {
      std::string value;
      std::string extra;
      if (!(ss >> value) || (ss >> extra))
        fail(line_no, keyword + " needs exactly one integer");
      int& field = keyword == "phase_loops" ? current.phase_loops
                                            : current.warps_per_cluster;
      field = number<int>(keyword, value, line_no);
    } else if (keyword == "phase") {
      std::string rest;
      std::getline(ss, rest);
      const auto kv = parsePairs(rest, line_no);
      PhaseProfile p;
      p.mix.ialu = require<double>(kv, "ialu", line_no);
      p.mix.falu = require<double>(kv, "falu", line_no);
      p.mix.sfu = require<double>(kv, "sfu", line_no);
      p.mix.load = require<double>(kv, "load", line_no);
      p.mix.store = require<double>(kv, "store", line_no);
      p.mix.shared = require<double>(kv, "shared", line_no);
      p.mix.branch = require<double>(kv, "branch", line_no);
      p.l1_hit_rate = require<double>(kv, "l1", line_no);
      p.l2_hit_rate = require<double>(kv, "l2", line_no);
      p.ilp = require<int>(kv, "ilp", line_no);
      p.divergence = require<double>(kv, "div", line_no);
      p.dep_prob = require<double>(kv, "dep", line_no);
      p.insts_per_warp = require<std::int64_t>(kv, "insts", line_no);
      current.phases.push_back(p);
    } else if (keyword == "end") {
      current.validate();  // throws DataError with the kernel's name
      kernels.push_back(current);
      in_kernel = false;
    } else {
      fail(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (in_kernel) throw DataError("profile ends inside a kernel block");
  return kernels;
}

void writeProfiles(const std::vector<KernelProfile>& kernels,
                   std::ostream& os) {
  os.precision(std::numeric_limits<double>::max_digits10);
  for (const auto& k : kernels) {
    os << "kernel " << k.name << ' ' << k.suite << '\n';
    os << "warps_per_cluster " << k.warps_per_cluster << '\n';
    os << "phase_loops " << k.phase_loops << '\n';
    for (const auto& p : k.phases) {
      os << "phase ialu=" << p.mix.ialu << " falu=" << p.mix.falu
         << " sfu=" << p.mix.sfu << " load=" << p.mix.load
         << " store=" << p.mix.store << " shared=" << p.mix.shared
         << " branch=" << p.mix.branch << " l1=" << p.l1_hit_rate
         << " l2=" << p.l2_hit_rate << " ilp=" << p.ilp
         << " div=" << p.divergence << " dep=" << p.dep_prob
         << " insts=" << p.insts_per_warp << '\n';
    }
    os << "end\n";
  }
}

std::vector<KernelProfile> loadProfilesFromFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw DataError("cannot open profile file: " + path);
  return parseProfiles(is);
}

void saveProfilesToFile(const std::vector<KernelProfile>& kernels,
                        const std::string& path) {
  std::ofstream os(path);
  if (!os) throw DataError("cannot open for writing: " + path);
  writeProfiles(kernels, os);
  if (!os) throw DataError("write failed: " + path);
}

}  // namespace ssm
