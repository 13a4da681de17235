// In-memory span recorder for the benchmark driver.
//
// Every timed call into a library layer is wrapped in a span (name, start,
// end, parent).  With tracing off no span is stored and a scope reads the
// clock only when the caller asked for its duration, so the untraced run
// pays for exactly the timings its end-to-end metrics need.  With tracing
// on, spans accumulate in memory and are written out when the run ends;
// the per-layer metrics are self times and counts derived from them.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  ///< index into the span list, -1 for a root
  std::int32_t round;   ///< measurement round, -1 outside the rounds
};

class tracer {
 public:
  explicit tracer(bool on) : on_(on) {}

  bool on() const noexcept { return on_; }
  void set_round(std::int32_t r) noexcept { round_ = r; }

  std::int32_t open(const char* name, std::int64_t start) {
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, start, start, stack_.empty() ? -1 : stack_.back(),
                      round_});
    stack_.push_back(idx);
    return idx;
  }
  void close(std::int32_t idx, std::int64_t end) {
    spans_[static_cast<std::size_t>(idx)].end_ns = end;
    stack_.pop_back();
  }

  /// Self time (duration minus the time covered by direct children) summed
  /// per span name, over spans recorded inside measurement rounds.
  std::map<std::string, double> self_seconds() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const span& s : spans_)
      if (s.parent >= 0)
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      if (s.round < 0) continue;
      out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e9;
    }
    return out;
  }

  /// Number of spans recorded inside measurement rounds.
  std::size_t spans_in_rounds() const {
    std::size_t n = 0;
    for (const span& s : spans_) n += s.round >= 0 ? 1 : 0;
    return n;
  }

  /// Writes every span as one tab-separated line:
  /// name, start_ns, end_ns, parent, round.  False on an I/O error.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    bool ok = std::fprintf(f, "name\tstart_ns\tend_ns\tparent\tround\n") > 0;
    for (const span& s : spans_)
      ok = ok && std::fprintf(f, "%s\t%lld\t%lld\t%d\t%d\n", s.name,
                              static_cast<long long>(s.start_ns),
                              static_cast<long long>(s.end_ns), s.parent,
                              s.round) > 0;
    return std::fclose(f) == 0 && ok;
  }

 private:
  bool on_;
  std::int32_t round_ = -1;
  std::vector<span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span.  `acc`, when given, receives the scope's duration in seconds
/// (added), whether or not tracing is on.
class scope {
 public:
  scope(tracer& t, const char* name, double* acc = nullptr)
      : t_(&t), acc_(acc) {
    if (t_->on() || acc_ != nullptr) start_ = now_ns();
    if (t_->on()) idx_ = t_->open(name, start_);
  }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;
  ~scope() {
    if (!t_->on() && acc_ == nullptr) return;
    const std::int64_t end = now_ns();
    if (acc_ != nullptr) *acc_ += static_cast<double>(end - start_) / 1e9;
    if (t_->on()) t_->close(idx_, end);
  }

 private:
  tracer* t_;
  double* acc_;
  std::int64_t start_ = 0;
  std::int32_t idx_ = -1;
};

}  // namespace perfbench
