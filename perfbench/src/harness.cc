#include "harness.h"

#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

std::int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanLog::Begin(const char* name, int op) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, NowNs(), -1, parent, op});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::End(int id) {
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double SpanLog::TotalMs(const char* name, int* count) const {
  double total = 0;
  int n = 0;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) != 0) continue;
    total += static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
    ++n;
  }
  if (count != nullptr) *count = n;
  return total;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"clock\":\"steady_clock ns since process start\",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry = {name, value, unit};
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void Metrics::SetNotCalled(const std::string& name, const std::string& unit) {
  Set(name, 0, unit);
  for (Entry& entry : entries_) entry.not_called |= entry.name == name;
}

void Digest::Bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ull;
  }
}

void Digest::Add(double value) { Bytes(&value, sizeof value); }
void Digest::Add(std::int64_t value) { Bytes(&value, sizeof value); }
void Digest::Add(const std::string& value) {
  Bytes(value.data(), value.size());
  Add(static_cast<std::int64_t>(value.size()));
}

std::string Digest::Hex() const {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, hash_);
  return buffer;
}

bool Reference::Load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open reference file " + path;
    return false;
  }
  std::string line;
  int number = 0;
  while (std::getline(in, line)) {
    ++number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, text;
    if (!(fields >> key >> text)) {
      *error = path + ":" + std::to_string(number) + ": expected `key value`";
      return false;
    }
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0') {
      *error = path + ":" + std::to_string(number) + ": bad number " + text;
      return false;
    }
    values_[key] = value;
  }
  return true;
}

bool Reference::Save(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "# perfbench reference outputs: `key value`, doubles as hex "
               "floats (bit-exact).\n# Regenerate with `perfbench "
               "--record-reference PATH` (see README.md).\n");
  for (const auto& [key, value] : values_) {
    std::fprintf(out, "%s %a\n", key.c_str(), value);
  }
  return std::fclose(out) == 0;
}

double Reference::Get(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? std::nan("") : it->second;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t SeedStream::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
  model.erase(std::find(model.begin(), model.end(), '\0'), model.end());
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

std::vector<std::pair<std::string, std::string>> HostFingerprint() {
  return {
      {"nproc", std::to_string(AffinityCpus())},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", CpuModel()},
#if defined(__clang__)
      {"compiler", std::string("clang ") + __clang_version__},
#else
      {"compiler", std::string("gcc ") + __VERSION__},
#endif
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"cxx_flags", PERFBENCH_CXX_FLAGS},
  };
}

}  // namespace perfbench
