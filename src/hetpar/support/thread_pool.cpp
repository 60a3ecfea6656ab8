#include "hetpar/support/thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>

namespace hetpar::support {

ThreadPool::ThreadPool(int numThreads) {
  const int n = numThreads < 1 ? 1 : numThreads;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hetpar: thread pool task escaped with: %s\n", e.what());
    } catch (...) {
      std::fprintf(stderr, "hetpar: thread pool task escaped with a non-std exception\n");
    }
  }
}

int ThreadPool::resolveJobs(int requested) {
  if (requested >= 1) return std::min(requested, kMaxJobs);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::optional<int> ThreadPool::parseJobs(std::string_view text) {
  int jobs = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, jobs);
  if (error != std::errc() || stop != end || jobs < 0 || jobs > kMaxJobs) return std::nullopt;
  return jobs;
}

}  // namespace hetpar::support
