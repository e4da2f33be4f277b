#include "support/job_queue.h"

#include "support/diagnostics.h"

namespace trapjit
{

WorkerPool::WorkerPool(size_t num_workers)
{
    TRAPJIT_ASSERT(num_workers > 0, "worker pool needs >= 1 worker");
    workers_.reserve(num_workers);
    for (size_t i = 0; i < num_workers; ++i) {
        workers_.emplace_back([this] {
            std::unique_lock<std::mutex> lock(mutex_);
            for (;;) {
                ready_.wait(lock,
                            [this] { return closed_ || !jobs_.empty(); });
                if (jobs_.empty())
                    return; // closed and drained
                runFront(lock);
            }
        });
    }
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    ready_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
WorkerPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobs_.push_back(std::move(job));
    }
    ready_.notify_one();
}

void
WorkerPool::runUntil(const std::function<bool()> &done)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        ready_.wait(lock, [&] { return done() || !jobs_.empty(); });
        if (done())
            break;
        runFront(lock);
    }
    // A submit's single wakeup may have picked this thread, which is
    // leaving without the job: pass it on.
    if (!jobs_.empty())
        ready_.notify_one();
}

void
WorkerPool::runFront(std::unique_lock<std::mutex> &lock) noexcept
{
    std::function<void()> job = std::move(jobs_.front());
    jobs_.pop_front();
    lock.unlock();
    job();
    job = nullptr; // its captures die outside the lock too
    lock.lock();
}

void
WorkerPool::wakeWaiters()
{
    // Taking the lock orders this after any waiter's predicate test,
    // so a waiter that saw the predicate false is asleep by now.
    { std::lock_guard<std::mutex> lock(mutex_); }
    ready_.notify_all();
}

} // namespace trapjit
