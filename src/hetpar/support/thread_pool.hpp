// Fixed-size worker pool for the concurrent solve engine.
//
// Deliberately minimal: a locked FIFO queue and a fixed number of workers,
// no work stealing. hetpar's units of work (one ILP lane, one HTG node
// merge) are large enough that queue contention is irrelevant next to the
// simplex pivots they run, so the simplest scheduler that preserves
// submission order is the right one. Tasks posted with `post` must not
// throw (the engine wraps its continuations); tasks submitted with `submit`
// propagate exceptions through the returned future.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

namespace hetpar::support {

class ThreadPool {
 public:
  /// Spawns `numThreads` workers; values < 1 are clamped to 1.
  explicit ThreadPool(int numThreads);

  /// Drains the queue (remaining tasks run, nothing is dropped) and joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues fire-and-forget work. An escaping exception is logged and
  /// swallowed (use `submit` when the caller needs the error).
  void post(std::function<void()> task);

  /// Enqueues `fn` and returns a future for its result; exceptions thrown
  /// by `fn` are rethrown from future.get().
  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    post([task] { (*task)(); });
    return result;
  }

  /// The most workers a `--jobs` request may ask for: far above the core
  /// count of any host hetpar plans on, far below a thread count that
  /// exhausts the process's thread limit.
  static constexpr int kMaxJobs = 1024;

  /// Resolves a `--jobs` style request: values >= 1 pass through, capped at
  /// kMaxJobs; anything else (0, negative) maps to the hardware concurrency
  /// (at least 1).
  static int resolveJobs(int requested);

  /// Parses a `--jobs` argument: a plain decimal integer in [0, kMaxJobs].
  /// Anything else (empty, signed, trailing text, past `int`, above the
  /// cap) is std::nullopt; the tools report it as a usage error.
  static std::optional<int> parseJobs(std::string_view text);

 private:
  void workerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace hetpar::support
