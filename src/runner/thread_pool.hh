/**
 * @file
 * Work-stealing thread pool for coarse-grained sweep cells.
 *
 * Each worker owns a deque; submit() distributes tasks round-robin,
 * workers pop their own deque LIFO and steal FIFO from the others
 * when empty. Tasks are expected to be independent simulation cells
 * (seconds of work each), so the stealing path is about keeping
 * stragglers busy at the end of a sweep, not about nanosecond-level
 * queue contention.
 *
 * An exception escaping a task is captured; the first one is
 * rethrown from waitIdle() after every submitted task has finished,
 * so a throwing cell can never deadlock the pool.
 */

#ifndef FSCACHE_RUNNER_THREAD_POOL_HH
#define FSCACHE_RUNNER_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fscache
{

/** See file comment. */
class ThreadPool
{
  public:
    /** Spawn `threads` workers (>= 1). */
    explicit ThreadPool(unsigned threads);

    /** Waits for running tasks, drops queued ones, joins workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threadCount() const
    { return static_cast<unsigned>(workers_.size()); }

    /** Enqueue a task; it may start running immediately. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished. If any task
     * threw, rethrows the first captured exception (the remaining
     * tasks still run to completion first). The pool stays usable
     * afterwards.
     */
    void waitIdle();

  private:
    struct Queue
    {
        std::mutex mu;
        // guarded by mu
        std::deque<std::function<void()>> tasks;
    };

    bool popLocal(unsigned self, std::function<void()> &out);
    bool steal(unsigned self, std::function<void()> &out);
    void workerLoop(unsigned self);
    void finishTask();

    // Const after construction: both vectors are sized in the
    // constructor and never resized; workers synchronize on each
    // Queue::mu / mu_, not on the spine.
    std::vector<std::unique_ptr<Queue>> queues_;
    // Only read after the constructor; joined by the destructor.
    std::vector<std::thread> workers_;

    std::mutex mu_; ///< guards wake_/idle_/signals_/firstError_
    std::condition_variable wake_;
    std::condition_variable idle_;
    /// Bumped per submit (missed-wakeup guard).
    std::uint64_t signals_ = 0; // guarded by mu_
    std::exception_ptr firstError_; // guarded by mu_

    std::atomic<std::uint64_t> pending_{0}; ///< submitted, not finished
    std::atomic<unsigned> nextQueue_{0};
    std::atomic<bool> stop_{false};
};

} // namespace fscache

#endif // FSCACHE_RUNNER_THREAD_POOL_HH
