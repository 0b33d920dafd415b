#include "parallel/worker_pool.h"

#include <algorithm>
#include <chrono>

#include "common/string_util.h"
#include "exec/exec_context.h"

namespace starmagic {

namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedUs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               since)
      .count();
}

const ExecContext& NoSinks() {
  static const ExecContext kNone;
  return kNone;
}

}  // namespace

WorkerPool::WorkerPool(int num_threads, const ExecContext* context)
    : num_threads_(std::max(1, num_threads)),
      context_(context != nullptr ? *context : NoSinks()) {
  helpers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int w = 1; w < num_threads_; ++w) {
    helpers_.emplace_back([this, w] { HelperMain(w); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

void WorkerPool::HelperMain(int worker_id) {
  int64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
    }
    RunLoop(worker_id);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_helpers_ == 0) done_cv_.notify_one();
    }
  }
}

void WorkerPool::RunLoop(int worker_id) {
  Clock::time_point start = Clock::now();
  SpanBuffer* buffer =
      tracing_ ? &span_buffers_[static_cast<size_t>(worker_id)] : nullptr;
  int span = -1;
  if (buffer != nullptr) {
    span = buffer->BeginSpan(StrCat("parallel worker ", worker_id),
                             "parallel");
  }
  int64_t local_morsels = 0;
  int64_t morsel = 0;
  int64_t begin = 0;
  int64_t end = 0;
  while (queue_.Next(&morsel, &begin, &end)) {
    ++local_morsels;
    // Cooperative cancellation point before each morsel, so cancel and
    // deadline aborts land at morsel granularity.
    Status status = context_.MorselCheckpoint();
    if (status.ok()) status = (*fn_)(morsel, begin, end, worker_id);
    if (!status.ok()) {
      // Keep the error of the lowest-indexed failing morsel. Morsels are
      // claimed in increasing order, so every morsel below the recorded
      // one was claimed — and, being deterministic, did not fail — which
      // makes the surviving error exactly the one a sequential run hits.
      std::lock_guard<std::mutex> lock(merge_mu_);
      if (err_morsel_ < 0 || morsel < err_morsel_) {
        err_morsel_ = morsel;
        err_ = std::move(status);
      }
      break;
    }
  }
  if (buffer != nullptr) {
    buffer->SetAttribute(span, "morsels", local_morsels);
    buffer->EndSpan(span);
  }
  int64_t busy = ElapsedUs(start);
  std::lock_guard<std::mutex> lock(merge_mu_);
  stats_.morsels += local_morsels;
  if (worker_id != 0) stats_.morsels_stolen += local_morsels;
  stats_.worker_busy_us += busy;
}

Status WorkerPool::ForEachMorsel(int64_t total, int64_t morsel_size,
                                 const MorselFn& fn) {
  if (total <= 0) return Status::OK();
  queue_.Reset(total, morsel_size);
  context_.BeginMorselLoop(queue_.num_morsels());
  tracing_ = context_.tracer() != nullptr;
  span_buffers_.assign(
      tracing_ ? static_cast<size_t>(num_threads_) : 0, SpanBuffer{});
  err_morsel_ = -1;
  err_ = Status::OK();
  fn_ = &fn;
  ++stats_.tasks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_helpers_ = num_threads_ - 1;
    ++generation_;
  }
  work_cv_.notify_all();
  RunLoop(/*worker_id=*/0);
  Clock::time_point barrier_start = Clock::now();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return active_helpers_ == 0; });
  }
  stats_.barrier_wait_us += ElapsedUs(barrier_start);
  fn_ = nullptr;
  if (tracing_) {
    // Workers have quiesced (barrier above), so the coordinator may touch
    // the single-threaded Tracer; worker lanes get tids 2, 3, ...
    for (int w = 0; w < num_threads_; ++w) {
      context_.tracer()->MergeSpanBuffer(
          span_buffers_[static_cast<size_t>(w)], /*tid=*/w + 2);
    }
  }
  if (err_morsel_ >= 0) return err_;
  return Status::OK();
}

}  // namespace starmagic
