// In-memory span recorder for the traced run (--trace 1).
//
// A span is (name, start, end, parent). Spans are recorded only around the
// public calls the benchmark makes, never per edge: the per-edge insert path
// gets one span per chunk of calls. Everything stays in memory until the run
// ends, when write_chrome_json() dumps it and self_seconds_by_layer() folds
// it into per-layer self times (a span's duration minus the part of it its
// child spans cover). With tracing off, Scope is a no-op that reads no clock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;  // "<layer>.<call>", a string literal
    std::int32_t parent;
    std::uint32_t thread;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  explicit Tracer(bool on) : on_(on) { spans_.reserve(on ? 1 << 16 : 0); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool on() const { return on_; }

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) {
      if (t_.on_) id_ = t_.open(name);
    }
    ~Scope() {
      if (id_ >= 0) t_.close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t id_ = -1;
  };

  // Self time per layer (the prefix of the span name before the first '.').
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string name(s.name);
      const std::string layer = name.substr(0, name.find('.'));
      out[layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                    1e9;
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> g(mu_);
    return spans_.size();
  }

  // chrome://tracing "complete" events; args.parent is the parent's index.
  void write_chrome_json(const std::string& path) const {
    std::lock_guard<std::mutex> g(mu_);
    std::ofstream f(path);
    f << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << (i ? ",\n" : "") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    f << "\n]}\n";
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  struct ThreadState {
    std::int32_t current = -1;
    std::uint32_t id = 0;
  };
  ThreadState& local() {
    thread_local ThreadState st{-1, next_thread_.fetch_add(1)};
    return st;
  }

  std::int32_t open(const char* name) {
    ThreadState& st = local();
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> g(mu_);
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, st.current, st.id, t, t});
    st.current = id;
    return id;
  }
  void close(std::int32_t id) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> g(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
    local().current = spans_[static_cast<std::size_t>(id)].parent;
  }

  const bool on_;
  std::atomic<std::uint32_t> next_thread_{0};
  mutable std::mutex mu_;          // guards spans_
  std::vector<Span> spans_;
};

}  // namespace perfbench
