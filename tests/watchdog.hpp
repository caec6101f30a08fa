// Test helper: aborts the process when a test body outlives its limit, so
// a deadlock reads as a failure naming the test instead of as a CI
// timeout.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace dgap::tests {

class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> g(mu_);
          if (!cv_.wait_for(g, limit, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: test exceeded %llds\n",
                         static_cast<long long>(limit.count()));
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> g(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace dgap::tests
