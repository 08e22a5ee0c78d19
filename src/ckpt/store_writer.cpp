#include "ckpt/store_writer.hpp"

#include <algorithm>
#include <utility>

namespace ndpcr::ckpt {

PutOutcome verified_put_once(KvStore& store, std::uint32_t rank,
                             std::uint64_t id, const Bytes& data) {
  PutOutcome out;
  const StoreStatus status = store.put(rank, id, Bytes(data));
  if (!status.ok()) {
    out.put_permanent = status.error().permanent();
    return out;
  }
  out.accepted = true;
  const StoreResult<Bytes> readback = store.get(rank, id);
  if (readback.ok() && *readback == data) {
    out.ok = true;
    return out;
  }
  out.verify_failed = true;
  if (readback.ok()) {
    // Torn or bit-flipped write landed under a valid key: quarantine it
    // so no reader can mistake it for the real entry.
    store.erase(rank, id);
    out.quarantined = true;
  } else {
    // A readback *error* leaves the entry in place - it may be intact -
    // but unverified counts as failed; the caller decides whether a
    // rewrite is worth it.
    out.read_error_permanent = readback.error().permanent();
  }
  return out;
}

AsyncStageWriter::AsyncStageWriter(std::size_t depth) : depth_(depth) {}

AsyncStageWriter::~AsyncStageWriter() {
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    cv_submit_.notify_one();
    thread_.join();
  }
}

void AsyncStageWriter::submit(std::function<void()> job) {
  ++stats_.jobs;
  if (depth_ == 0) {
    ++stats_.inline_jobs;
    job();
    return;
  }
  std::unique_lock<std::mutex> lk(m_);
  if (!thread_.joinable()) {
    thread_ = std::thread([this] { loop(); });
  }
  if (queue_.size() >= depth_) {
    ++stats_.enqueue_stalls;
    cv_drain_.wait(lk, [&] { return queue_.size() < depth_; });
  }
  queue_.push_back(std::move(job));
  stats_.queue_peak = std::max<std::uint64_t>(
      stats_.queue_peak, queue_.size() + (busy_ ? 1 : 0));
  lk.unlock();
  cv_submit_.notify_one();
}

void AsyncStageWriter::flush() {
  ++stats_.flushes;
  if (depth_ == 0 || !thread_.joinable()) {
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
    return;
  }
  std::unique_lock<std::mutex> lk(m_);
  cv_drain_.wait(lk, [&] { return queue_.empty() && !busy_; });
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

void AsyncStageWriter::loop() {
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    cv_submit_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop with nothing staged
    std::function<void()> job = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    lk.unlock();
    cv_drain_.notify_all();  // space freed: a stalled submit can proceed
    try {
      job();
    } catch (...) {
      std::lock_guard<std::mutex> elk(m_);
      if (!error_) error_ = std::current_exception();
    }
    lk.lock();
    busy_ = false;
    if (queue_.empty()) cv_drain_.notify_all();  // flush barrier
  }
}

}  // namespace ndpcr::ckpt
