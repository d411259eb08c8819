#include "policy/dicer.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/log.hpp"
#include "util/trace.hpp"

namespace dicer::policy {

namespace {

const char* state_label(int state) noexcept {
  switch (state) {
    case 0: return "warmup";
    case 1: return "steady";
    case 2: return "sampling";
    case 3: return "reset_validate";
  }
  return "?";
}

}  // namespace

Dicer::Dicer(const DicerConfig& config)
    : config_(config), hp_bw_history_(config.bw_history_periods) {
  if (config_.period_sec <= 0.0 || config_.sample_interval_sec <= 0.0) {
    throw std::invalid_argument("Dicer: intervals must be > 0");
  }
  if (config_.alpha <= 0.0 || config_.alpha >= 1.0) {
    throw std::invalid_argument("Dicer: alpha outside (0, 1)");
  }
  if (config_.phase_threshold <= 0.0) {
    throw std::invalid_argument("Dicer: phase_threshold must be > 0");
  }
  if (config_.sample_stride == 0) {
    throw std::invalid_argument("Dicer: sample_stride must be >= 1");
  }
  if (config_.min_hp_ways < 1 || config_.min_be_ways < 1) {
    throw std::invalid_argument("Dicer: minimum partitions are 1 way");
  }
}

void Dicer::setup(PolicyContext& ctx) {
  associate_and_track(ctx);
  total_ways_ = ctx.cat->num_ways();
  if (config_.min_hp_ways + config_.min_be_ways > total_ways_) {
    throw std::invalid_argument("Dicer: min ways exceed the cache");
  }
  // Listing 1 prologue: start like CT, presuming a CT-Favoured workload.
  hp_ways_ = total_ways_ - config_.min_be_ways;
  optimal_hp_ways_ = hp_ways_;
  rollback_hp_ways_ = hp_ways_;
  ct_favoured_ = true;
  apply_split(ctx, hp_ways_);
  state_ = State::kWarmup;
  hp_bw_history_.reset();
  // Establish monitor baselines at t0 so the first period's deltas are
  // exactly one period wide.
  ctx.monitor->poll_all();
  auto& tr = trace::resolve(ctx.tracer);
  tr.emit(trace::Kind::kSetup, ctx.machine->time_sec(), [&] {
    return std::vector<trace::Field>{
        {"policy", name()},
        {"hp_ways", hp_ways_},
        {"total_ways", total_ways_},
        {"period_sec", config_.period_sec},
        {"membw_threshold_bps", config_.membw_threshold_bytes_per_sec}};
  });
}

double Dicer::interval_sec() const {
  return state_ == State::kSampling ? config_.sample_interval_sec
                                    : config_.period_sec;
}

Dicer::PeriodSample Dicer::measure(PolicyContext& ctx) {
  PeriodSample s;
  for (const auto& [core, mon] : ctx.monitor->poll_all()) {
    if (core == ctx.hp_core) {
      s.hp_ipc = mon.ipc;
      s.hp_bw = mon.mbm_bytes_per_sec;
    }
  }
  s.total_bw = ctx.monitor->last_total_mbm_bytes_per_sec();
  return s;
}

bool Dicer::bw_saturated(const PeriodSample& s) const {
  return config_.bw_detection &&
         s.total_bw > config_.membw_threshold_bytes_per_sec;
}

bool Dicer::phase_change(double hp_bw) const {
  // Eq. 2: MemBW_t > (1 + phase_threshold) * gmean(MemBW_{t-3..t-1}).
  if (!hp_bw_history_.full()) return false;
  const double ref = hp_bw_history_.gmean();
  if (ref <= 0.0) return false;
  return hp_bw > (1.0 + config_.phase_threshold) * ref;
}

bool Dicer::performance_stable(double ipc) const {
  // Eq. 3: (1-a) * IPC_{t-1} <= IPC_t <= (1+a) * IPC_{t-1}.
  return ipc >= (1.0 - config_.alpha) * prev_ipc_ &&
         ipc <= (1.0 + config_.alpha) * prev_ipc_;
}

bool Dicer::performance_better(double ipc, double reference) const {
  return ipc > (1.0 + config_.alpha) * reference;
}

void Dicer::set_hp_ways(PolicyContext& ctx, unsigned hp_ways) {
  hp_ways =
      std::clamp(hp_ways, config_.min_hp_ways, total_ways_ - config_.min_be_ways);
  if (hp_ways != hp_ways_) {
    DICER_DEBUG << "DICER: HP ways " << hp_ways_ << " -> " << hp_ways
                << " at t=" << ctx.machine->time_sec();
    auto& tr = trace::resolve(ctx.tracer);
    tr.emit(trace::Kind::kAllocation, ctx.machine->time_sec(), [&] {
      return std::vector<trace::Field>{{"from", hp_ways_}, {"to", hp_ways}};
    });
  }
  hp_ways_ = hp_ways;
  apply_split(ctx, hp_ways_);
}

void Dicer::start_sampling(PolicyContext& ctx) {
  // Listing 1, allocation_sampling(): the workload is CT-Thwarted; find
  // the HP allocation with the highest IPC by applying decreasing sizes.
  ct_favoured_ = false;
  ++stats_.samplings;
  sample_plan_.clear();
  const unsigned hi = total_ways_ - config_.min_be_ways;
  for (unsigned w = hi;; ) {
    sample_plan_.push_back(w);
    if (w <= config_.min_hp_ways) break;
    w = w > config_.sample_stride + config_.min_hp_ways - 1
            ? w - config_.sample_stride
            : config_.min_hp_ways;
  }
  sample_index_ = 0;
  best_sample_ways_ = sample_plan_.front();
  best_sample_ipc_ = -1.0;
  auto& tr = trace::resolve(ctx.tracer);
  tr.emit(trace::Kind::kSamplingStart, ctx.machine->time_sec(), [&] {
    std::string plan;
    for (unsigned w : sample_plan_) {
      if (!plan.empty()) plan += ' ';
      plan += std::to_string(w);
    }
    return std::vector<trace::Field>{
        {"sampling", stats_.samplings},
        {"plan", std::move(plan)},
        {"settle_sec", config_.sample_interval_sec}};
  });
  set_hp_ways(ctx, sample_plan_.front());
  // Fresh baselines so the first sample interval measures only itself.
  ctx.monitor->poll_all();
  state_ = State::kSampling;
}

void Dicer::sampling_step(PolicyContext& ctx, const PeriodSample& s) {
  ++stats_.sampling_steps;
  if (s.hp_ipc > best_sample_ipc_) {
    best_sample_ipc_ = s.hp_ipc;
    best_sample_ways_ = sample_plan_[sample_index_];
  }
  auto& tr = trace::resolve(ctx.tracer);
  tr.emit(trace::Kind::kSamplingStep, ctx.machine->time_sec(), [&] {
    return std::vector<trace::Field>{{"step", stats_.sampling_steps},
                                     {"ways", sample_plan_[sample_index_]},
                                     {"hp_ipc", s.hp_ipc},
                                     {"best_ways", best_sample_ways_},
                                     {"best_ipc", best_sample_ipc_}};
  });
  ++sample_index_;
  if (sample_index_ < sample_plan_.size()) {
    set_hp_ways(ctx, sample_plan_[sample_index_]);
    return;
  }
  // Plan exhausted: enforce the optimum and return to steady operation.
  optimal_hp_ways_ = best_sample_ways_;
  ipc_opt_ = best_sample_ipc_;
  set_hp_ways(ctx, optimal_hp_ways_);
  prev_ipc_ = ipc_opt_;
  hp_bw_history_.reset();
  // Cooldown counts steady monitoring periods after sampling finishes
  // (sampling's own settle intervals must not consume it).
  last_sampling_period_ = stats_.periods;
  state_ = State::kSteady;
  DICER_DEBUG << "DICER: sampling done, optimal HP ways=" << optimal_hp_ways_
              << " IPC_opt=" << ipc_opt_;
  tr.emit(trace::Kind::kSamplingDone, ctx.machine->time_sec(), [&] {
    return std::vector<trace::Field>{{"optimal_ways", optimal_hp_ways_},
                                     {"ipc_opt", ipc_opt_}};
  });
}

void Dicer::allocation_reset(PolicyContext& ctx, double trigger_ipc) {
  // Listing 3 entry: enforce the best-known allocation, then validate it
  // after one monitoring period.
  trigger_ipc_ = trigger_ipc;
  if (ct_favoured_) {
    reset_kind_ = ResetKind::kCtFavoured;
    rollback_hp_ways_ = hp_ways_;
    set_hp_ways(ctx, total_ways_ - config_.min_be_ways);
  } else {
    reset_kind_ = ResetKind::kCtThwarted;
    set_hp_ways(ctx, optimal_hp_ways_);
  }
  state_ = State::kResetValidate;
}

void Dicer::reset_validate_step(PolicyContext& ctx, const PeriodSample& s) {
  auto& tr = trace::resolve(ctx.tracer);
  const char* reset_class =
      reset_kind_ == ResetKind::kCtFavoured ? "CT-F" : "CT-T";
  auto note_outcome = [&](const char* outcome) {
    tr.emit(trace::Kind::kResetValidate, ctx.machine->time_sec(), [&] {
      return std::vector<trace::Field>{{"reset_class", reset_class},
                                       {"outcome", outcome},
                                       {"hp_ipc", s.hp_ipc},
                                       {"trigger_ipc", trigger_ipc_}};
    });
  };
  if (bw_saturated(s)) {
    // Validation case (i) for both classes: the link saturated — sample.
    note_outcome("saturated_resample");
    start_sampling(ctx);
    return;
  }
  if (reset_kind_ == ResetKind::kCtFavoured) {
    if (performance_better(s.hp_ipc, trigger_ipc_)) {
      // (ii) the reset was right; optimisation proceeds from here.
      note_outcome("confirmed");
      prev_ipc_ = s.hp_ipc;
    } else {
      // (iii) the lower IPC was a phase effect, not an allocation effect:
      // revert to the allocation that triggered the reset.
      ++stats_.rollbacks;
      note_outcome("rollback");
      set_hp_ways(ctx, rollback_hp_ways_);
      prev_ipc_ = s.hp_ipc;
    }
    state_ = State::kSteady;
    return;
  }
  // CT-Thwarted validation: is IPC close to IPC_opt?
  if (s.hp_ipc >= (1.0 - config_.alpha) * ipc_opt_) {
    note_outcome("confirmed");
    prev_ipc_ = s.hp_ipc;
    state_ = State::kSteady;
    return;
  }
  // (iii) the optimum has moved: sample again.
  note_outcome("resample");
  start_sampling(ctx);
}

void Dicer::steady_step(PolicyContext& ctx, const PeriodSample& s) {
  // Listing 1 driver body.
  if (bw_saturated(s)) {
    const bool cooled =
        stats_.periods - last_sampling_period_ >=
        config_.resample_cooldown_periods;
    if (cooled) {
      start_sampling(ctx);
      return;
    }
    // Saturated but inside the cooldown: hold the current allocation.
    prev_ipc_ = s.hp_ipc;
    hp_bw_history_.add(s.hp_bw);
    return;
  }

  // Listing 2, allocation_optimisation().
  auto& tr = trace::resolve(ctx.tracer);
  if (phase_change(s.hp_bw)) {
    ++stats_.phase_resets;
    tr.emit(trace::Kind::kPhaseReset, ctx.machine->time_sec(), [&] {
      return std::vector<trace::Field>{{"hp_bw_bps", s.hp_bw},
                                       {"gmean_bps", hp_bw_history_.gmean()},
                                       {"hp_ipc", s.hp_ipc}};
    });
    hp_bw_history_.add(s.hp_bw);
    allocation_reset(ctx, s.hp_ipc);
    return;
  }
  if (performance_stable(s.hp_ipc)) {
    // Stable: presume head-room and donate one way to the BEs.
    if (hp_ways_ > config_.min_hp_ways) {
      ++stats_.way_donations;
      tr.emit(trace::Kind::kDonation, ctx.machine->time_sec(), [&] {
        return std::vector<trace::Field>{
            {"from", hp_ways_}, {"to", hp_ways_ - 1}, {"hp_ipc", s.hp_ipc}};
      });
      set_hp_ways(ctx, hp_ways_ - 1);
    }
  } else if (performance_better(s.hp_ipc, prev_ipc_)) {
    // Higher-IPC phase with the same cache needs: hold the allocation.
  } else {
    // Worse: allocation harmed HP (or a lower-IPC phase began) — reset.
    ++stats_.perf_resets;
    tr.emit(trace::Kind::kPerfReset, ctx.machine->time_sec(), [&] {
      return std::vector<trace::Field>{{"hp_ipc", s.hp_ipc},
                                       {"prev_ipc", prev_ipc_}};
    });
    hp_bw_history_.add(s.hp_bw);
    allocation_reset(ctx, s.hp_ipc);
    return;
  }
  prev_ipc_ = s.hp_ipc;
  hp_bw_history_.add(s.hp_bw);
}

void Dicer::on_period(PolicyContext&, double, double, double) {}

void Dicer::act(PolicyContext& ctx) {
  const PeriodSample s = measure(ctx);
  ++stats_.periods;
  auto& tr = trace::resolve(ctx.tracer);
  // Snapshot of what the controller saw, with the Eq. 2 / Eq. 3 verdicts
  // evaluated against the pre-transition references. `state` is the state
  // this measurement is interpreted in.
  tr.emit(trace::Kind::kPeriod, ctx.machine->time_sec(), [&] {
    return std::vector<trace::Field>{
        {"period", stats_.periods},
        {"state", state_label(static_cast<int>(state_))},
        {"class", ct_favoured_ ? "CT-F" : "CT-T"},
        {"hp_ways", hp_ways_},
        {"hp_ipc", s.hp_ipc},
        {"hp_bw_bps", s.hp_bw},
        {"total_bw_bps", s.total_bw},
        {"saturated", bw_saturated(s)},
        {"phase_change", phase_change(s.hp_bw)},
        {"ipc_stable", performance_stable(s.hp_ipc)}};
  });
  on_period(ctx, s.hp_ipc, s.hp_bw, s.total_bw);

  switch (state_) {
    case State::kWarmup:
      // First period under the CT-like start: establish references.
      prev_ipc_ = s.hp_ipc;
      hp_bw_history_.add(s.hp_bw);
      state_ = State::kSteady;
      if (bw_saturated(s)) {
        // First-time saturation: the workload is CT-Thwarted (§3.2.1).
        start_sampling(ctx);
      }
      return;
    case State::kSteady:
      steady_step(ctx, s);
      return;
    case State::kSampling:
      sampling_step(ctx, s);
      return;
    case State::kResetValidate:
      reset_validate_step(ctx, s);
      return;
  }
}

}  // namespace dicer::policy
