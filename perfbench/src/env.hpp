// Host fingerprint and the STREAM-triad bandwidth probe.
#pragma once

#include <omp.h>
#include <unistd.h>  // environ

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bytes.hpp"
#include "stats.hpp"

namespace perfbench {

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

inline std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// sysfs cache size string ("48K", "2048K", "300M") to bytes; 0 if unknown.
inline std::int64_t parse_cache_size(const std::string& s) {
  if (s.empty()) return 0;
  std::int64_t v = 0;
  std::size_t i = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    v = v * 10 + (s[i] - '0');
    ++i;
  }
  if (i < s.size() && s[i] == 'K') v <<= 10;
  if (i < s.size() && s[i] == 'M') v <<= 20;
  if (i < s.size() && s[i] == 'G') v <<= 30;
  return v;
}

struct CacheLevel {
  int level = 0;
  std::string type;
  std::int64_t bytes = 0;
};

/// Caches of cpu0 as sysfs reports them (per instance).
inline std::vector<CacheLevel> caches() {
  std::vector<CacheLevel> out;
  for (int i = 0; i < 8; ++i) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string lvl = read_first_line(base + "level");
    if (lvl.empty()) break;
    CacheLevel c;
    c.level = std::stoi(lvl);
    c.type = read_first_line(base + "type");
    c.bytes = parse_cache_size(read_first_line(base + "size"));
    out.push_back(c);
  }
  return out;
}

/// Last-level cache size in bytes; 0 if sysfs does not say.
inline std::int64_t llc_bytes() {
  std::int64_t best = 0;
  int best_level = 0;
  for (const CacheLevel& c : caches()) {
    if (c.level > best_level || (c.level == best_level && c.bytes > best)) {
      best_level = c.level;
      best = c.bytes;
    }
  }
  return best;
}

inline std::int64_t mem_available_bytes() {
  std::ifstream in("/proc/meminfo");
  std::string key;
  std::int64_t kb = 0;
  std::string unit;
  while (in >> key >> kb >> unit) {
    if (key == "MemAvailable:") return kb << 10;
  }
  return 0;
}

inline std::string omp_env_json() {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (char** e = environ; e && *e; ++e) {
    const std::string kv(*e);
    if (kv.rfind("OMP_", 0) != 0 && kv.rfind("GOMP_", 0) != 0) continue;
    const std::size_t eq = kv.find('=');
    os << (first ? "" : ", ") << "\"" << json_escape(kv.substr(0, eq))
       << "\": \"" << json_escape(kv.substr(eq + 1)) << "\"";
    first = false;
  }
  os << "}";
  return os.str();
}

/// Aggregate CPU time counters of /proc/stat, in clock ticks.
struct CpuTicks {
  std::int64_t total = 0;
  std::int64_t steal = 0;
};

inline CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  std::int64_t v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Share of all CPU time the hypervisor gave to other guests between two
/// readings (0 on bare metal or when /proc/stat is unavailable).
inline double steal_frac(const CpuTicks& a, const CpuTicks& b) {
  const std::int64_t dt = b.total - a.total;
  return dt > 0 ? static_cast<double>(b.steal - a.steal) / static_cast<double>(dt)
                : 0.0;
}

struct TriadResult {
  double gbs = 0.0;             ///< median over passes, measured
  std::int64_t array_bytes = 0; ///< bytes of each of the three arrays
  std::int64_t llc = 0;         ///< last-level cache the sizing used
};

/// STREAM triad a = b + s c with each array sized at 4x the last-level cache
/// so the probe streams from DRAM. Capped at a quarter of available memory
/// for all three arrays together; the returned sizes say what was used.
inline TriadResult triad_probe(int passes = 5) {
  TriadResult r;
  r.llc = llc_bytes();
  std::int64_t want = 4 * (r.llc > 0 ? r.llc : (std::int64_t{64} << 20));
  const std::int64_t avail = mem_available_bytes();
  if (avail > 0) want = std::min(want, avail / 12);
  const std::int64_t len = want / 8;
  r.array_bytes = len * 8;
  std::vector<double> a, b, c;
  a.resize(static_cast<std::size_t>(len));
  b.resize(static_cast<std::size_t>(len));
  c.resize(static_cast<std::size_t>(len));
  double* pa = a.data();
  double* pb = b.data();
  double* pc = c.data();
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < len; ++i) {
    pa[i] = 0.0;
    pb[i] = 1.0;
    pc[i] = 2.0;
  }
  const double s = 3.0;
  std::vector<double> gbs;
  for (int p = 0; p < passes + 1; ++p) {
    const auto t0 = std::chrono::steady_clock::now();
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < len; ++i) pa[i] = pb[i] + s * pc[i];
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (p > 0) gbs.push_back(triad_bytes(len) / dt * 1e-9);  // pass 0 warms
  }
  r.gbs = median(gbs);
  if (pa[len / 2] != 7.0) r.gbs = 0.0;  // result check; keeps the loop live
  return r;
}

}  // namespace perfbench
