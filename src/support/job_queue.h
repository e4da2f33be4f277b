#ifndef TRAPJIT_SUPPORT_JOB_QUEUE_H_
#define TRAPJIT_SUPPORT_JOB_QUEUE_H_

/**
 * @file
 * A fixed worker pool draining one FIFO of closures, whose waiting
 * callers work the queue too, and the countdown latch a batch of pool
 * jobs signals completion through.
 *
 * The compile service (jit/compile_service.h) submits one closure per
 * (function, config) job; a fixed set of worker threads drains the
 * queue, and the client thread that waits for its batch runs queued
 * jobs itself (WorkerPool::runUntil) instead of sleeping.  The pool
 * makes no ordering or affinity promises — anything submitted through
 * it must be order-independent, which the compile service guarantees by
 * compiling every function against an immutable snapshot of its module.
 *
 * Jobs never block, and must not: no job waits for another job, on a
 * lock held across a job or on a latch.  A job that cannot proceed yet
 * ends and is resubmitted by whatever readies it (the compile
 * service's misses park on their call-graph SCC this way).  That is
 * what makes running jobs on waiting threads sound: a waiter that
 * picks up a job always gets back to its own predicate, and a job
 * never needs a thread that is busy running it.  A job must not throw
 * either (the pool ends the process, wherever the job ran), and must not
 * depend on the thread-local state of the thread that runs it, which may
 * be any worker or any waiting client.
 */

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace trapjit
{

/**
 * Fixed-size pool of worker threads draining a FIFO of closures.
 * Destruction drains the backlog, then joins the workers.
 */
class WorkerPool
{
  public:
    explicit WorkerPool(size_t num_workers);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Enqueue @p job; it runs on some worker or waiter, some time
     *  later. */
    void submit(std::function<void()> job);

    /**
     * Run queued jobs on the calling thread until @p done() holds,
     * sleeping while the queue is empty.  @p done is tested under the
     * pool's lock, so whoever makes it hold and then calls
     * wakeWaiters() cannot lose the wakeup.  Jobs of any batch may run
     * here; returns as soon as @p done() holds.
     */
    void runUntil(const std::function<bool()> &done);

    /** Wake every runUntil() caller to re-test its predicate. */
    void wakeWaiters();

    size_t numWorkers() const { return workers_.size(); }

  private:
    /** Pop the front job and run it with the lock released.  A job
     *  that throws ends the process here, on a waiter as on a worker,
     *  rather than unwinding a waiter out of a batch whose other jobs
     *  are still running. */
    void runFront(std::unique_lock<std::mutex> &lock) noexcept;

    std::mutex mutex_;
    std::condition_variable ready_; ///< a job, a predicate or close
    std::deque<std::function<void()>> jobs_;
    bool closed_ = false;
    std::vector<std::thread> workers_;
};

/**
 * Countdown latch over one batch of @p pool jobs: wait() works the
 * pool's queue until countDown() has been called @p count times.
 */
class CompletionLatch
{
  public:
    CompletionLatch(WorkerPool &pool, size_t count)
        : pool_(pool), remaining_(count)
    {}

    /**
     * One job done.  The last call wakes the waiter through the pool,
     * which outlives the batch: once the count reaches zero the waiter
     * may return and destroy this latch before the call ends.
     */
    void
    countDown()
    {
        WorkerPool &pool = pool_;
        if (remaining_.fetch_sub(1) == 1)
            pool.wakeWaiters();
    }

    /** Run pool jobs on the calling thread until the count is zero. */
    void
    wait()
    {
        pool_.runUntil([this] { return remaining_.load() == 0; });
    }

  private:
    WorkerPool &pool_;
    std::atomic<size_t> remaining_;
};

} // namespace trapjit

#endif // TRAPJIT_SUPPORT_JOB_QUEUE_H_
