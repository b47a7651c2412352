#include "support/parallel.h"

#include "support/thread_registry.h"

namespace phpf {

TaskPool::TaskPool(int threads, std::string namePrefix)
    : nThreads_(threads < 1 ? 1 : threads) {
    threads_.reserve(static_cast<size_t>(nThreads_));
    for (int w = 0; w < nThreads_; ++w)
        threads_.emplace_back([this, w, namePrefix] {
            if (!namePrefix.empty())
                thread_registry::setCurrentName(namePrefix + "-" +
                                                std::to_string(w));
            workerMain();
        });
}

TaskPool::~TaskPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
}

void TaskPool::post(std::function<void()> task) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

std::size_t TaskPool::queueDepth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

void TaskPool::drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [&] {
        return queue_.empty() && active_.load(std::memory_order_relaxed) == 0;
    });
}

void TaskPool::workerMain() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
            // Drain the queue even when stopping: destruction promises
            // completion of everything already posted.
            if (queue_.empty()) return;
            task = std::move(queue_.front());
            queue_.pop_front();
            active_.fetch_add(1, std::memory_order_relaxed);
        }
        // An exception escaping into std::thread is std::terminate for
        // the whole process; swallow it here so one bad job costs one
        // result, not the pool.
        std::string error;
        try {
            task();
        } catch (const std::exception& e) {
            error = e.what();
            if (error.empty()) error = "exception with empty message";
        } catch (...) {
            error = "unknown exception";
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error.empty()) {
                failures_.fetch_add(1, std::memory_order_relaxed);
                lastError_ = std::move(error);
            }
            active_.fetch_sub(1, std::memory_order_relaxed);
        }
        idleCv_.notify_all();
    }
}

std::string TaskPool::lastError() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lastError_;
}

}  // namespace phpf
