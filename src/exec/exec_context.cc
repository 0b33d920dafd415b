#include "exec/exec_context.h"

#include "common/string_util.h"
#include "exec/executor.h"
#include "qgm/box.h"

namespace starmagic {

void ExecStats::MergeFrom(const ExecStats& other) {
  rows_scanned += other.rows_scanned;
  rows_produced += other.rows_produced;
  join_probes += other.join_probes;
  box_evaluations += other.box_evaluations;
  fixpoint_iterations += other.fixpoint_iterations;
  index_probes += other.index_probes;
  index_rows_fetched += other.index_rows_fetched;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
}

std::string ExecStats::ToString() const {
  return StrCat("scanned=", rows_scanned, " produced=", rows_produced,
                " probes=", join_probes, " evals=", box_evaluations,
                " fixpoint_iters=", fixpoint_iterations,
                " index_probes=", index_probes,
                " index_fetched=", index_rows_fetched,
                " cache_hits=", cache_hits, " cache_misses=", cache_misses,
                " work=", TotalWork());
}

ExecContext::ExecContext(const ExecOptions& options, ExecStats* stats)
    : governor_(options.governor),
      progress_(options.progress),
      tracer_(options.tracer),
      stats_(stats),
      track_boxes_(options.collect_box_stats || tracer() != nullptr) {}

ExecContext::BoxScope::BoxScope(ExecContext* ctx, const Box& box)
    : ctx_(ctx) {
  if (!ctx_->track_boxes_) return;
  box_ = &ctx_->box_stats_[box.id()];
  ++box_->evaluations;
  // A correlated box is evaluated once per binding; after the first few a
  // per-evaluation span adds nothing but trace bloat, so only the earliest
  // evaluations of each box get spans (stats keep accumulating for all).
  constexpr int64_t kMaxSpansPerBox = 32;
  if (Tracer* tracer = ctx_->tracer();
      tracer != nullptr && box_->evaluations <= kMaxSpansPerBox) {
    span_ = tracer->BeginSpan(box.DebugId(), "exec");
  }
  probes_before_ = Probes();
  start_ = std::chrono::steady_clock::now();
}

ExecContext::BoxScope::~BoxScope() {
  if (box_ == nullptr) return;
  box_->wall_ms += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - start_)
                       .count() /
                   1e6;
  box_->probes += Probes() - probes_before_;
  if (span_ >= 0) ctx_->tracer_->EndSpan(span_);
}

Status ExecContext::BoxScope::Finish(int64_t rows_out) {
  if (box_ != nullptr) {
    box_->rows_out += rows_out;
    if (span_ >= 0) {
      ctx_->tracer_->SetAttribute(span_, "rows_out", rows_out);
      ctx_->tracer_->SetAttribute(span_, "probes", Probes() - probes_before_);
    }
  }
  return ctx_->governor_ != nullptr
             ? ctx_->governor_->CheckOutputRows(ctx_->stats_->rows_produced)
             : Status::OK();
}

int64_t ExecContext::BoxScope::Probes() const {
  return ctx_->stats_->join_probes + ctx_->stats_->index_probes;
}

}  // namespace starmagic
