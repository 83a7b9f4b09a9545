// Shared machinery of the perfbench binary: wall clocks, the in-memory span
// log of traced runs, the metric sink, the output digest, the reference
// table, and small statistics helpers.
//
// Everything here lives outside the simulator. Layers are measured only by
// timing the benchmark's own calls into their public functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Spans recorded by a traced run: name, start, end and the enclosing span.
// Kept in memory and written once, when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  // index into spans(), -1 for a root
    int op;      // operation index, -1 outside the measured loop
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int Begin(const char* name, int op);
  void End(int id);

  // Sum of the durations of spans named `name`, and how many there were.
  double TotalMs(const char* name, int* count = nullptr) const;
  bool WriteJson(const std::string& path) const;

 private:
  std::int64_t NowNs() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log makes it a no-op, so untraced runs share the code.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int op = -1)
      : log_(log), id_(log != nullptr ? log->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// Named metrics in the order they were first set.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Reports 0 for a metric of a layer the workload never calls, until a
  // later Set() measures it.
  void SetNotCalled(const std::string& name, const std::string& unit);
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    bool not_called = false;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

// FNV-1a over the exact bits of simulated outputs.
class Digest {
 public:
  void Add(double value);
  void Add(std::int64_t value);
  void Add(const std::string& value);
  std::uint64_t value() const { return hash_; }
  std::string Hex() const;

 private:
  void Bytes(const void* data, std::size_t size);
  std::uint64_t hash_ = 1469598103934665603ull;
};

// Reference values of simulated outputs, one `key value` pair per line.
// Doubles are stored as C99 hex floats so that comparisons are bit-exact.
class Reference {
 public:
  bool Load(const std::string& path, std::string* error);
  bool Save(const std::string& path) const;
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  double Get(const std::string& key) const;
  void Put(const std::string& key, double value) { values_[key] = value; }

 private:
  std::map<std::string, double> values_;
};

// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// splitmix64: the seed expander every workload draws its inputs from.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  // Uniform integer in [0, n).
  int Below(int n) { return static_cast<int>(Next() % static_cast<std::uint64_t>(n)); }

 private:
  std::uint64_t state_;
};

// Host fingerprint lines (nproc, CPU model, compiler, build type and flags).
std::vector<std::pair<std::string, std::string>> HostFingerprint();

}  // namespace perfbench
