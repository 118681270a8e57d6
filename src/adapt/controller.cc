#include "adapt/controller.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "obs/timeline.h"
#include "pull/hybrid.h"

namespace bcast::adapt {

uint64_t SlotController::Decide(double depth_mean, double idle_rate) {
  int dir = 0;
  if (depth_mean > params_.queue_high && idle_rate < params_.idle_low &&
      slots_ < params_.max_slots) {
    dir = +1;
  } else if (idle_rate > params_.idle_high && slots_ > params_.min_slots) {
    dir = -1;
  }
  if (dir == 0) {
    streak_ = 0;
    last_dir_ = 0;
    return slots_;
  }
  streak_ = (dir == last_dir_) ? streak_ + 1 : 1;
  last_dir_ = dir;
  if (streak_ < params_.hysteresis_epochs) return slots_;
  streak_ = 0;
  last_dir_ = 0;
  if (dir > 0) {
    ++slots_;
    ++grows_;
  } else {
    --slots_;
    ++shrinks_;
  }
  return slots_;
}

Controller::Controller(des::Simulation* sim, const DiskLayout& layout,
                       const AdaptParams& params, Hooks hooks)
    : sim_(sim),
      layout_(layout),
      params_(params),
      hooks_(hooks),
      perm_(layout),
      slot_control_(params, hooks.pull != nullptr
                                ? hooks.pull->layout().pull_per_minor
                                : 0),
      slots_(slot_control_.slots()) {
  BCAST_CHECK(params_.Active()) << "controller built with adaptation off";
  BCAST_CHECK(hooks_.channel != nullptr);
  BCAST_CHECK_EQ(perm_.num_pages(), hooks_.channel->program().num_pages());
  seats_ = &hooks_.channel->program();
  // Resync must be armed before the first client wait starts; the
  // controller is constructed before Simulation::Run.
  hooks_.channel->EnableResync();
}

void Controller::Start() {
  period_ = static_cast<double>(hooks_.channel->program().period());
  stats_.initial_slots = slots_;
  stats_.final_slots = slots_;
  const double first = static_cast<double>(params_.epoch_cycles) * period_;
  next_tick_ = first;
  sim_->ScheduleAt(
      first, [this, first] { Tick(first); }, des::EventKind::kController);
}

void Controller::Tick(double now) {
  // All clients done: let the event queue drain instead of ticking
  // forever.
  const bool live = hooks_.liveness ? hooks_.liveness()
                                    : sim_->live_processes() > 0;
  if (!live) return;
  ++stats_.epochs;
  bool rebuild = false;

  if (params_.reopt && hooks_.access != nullptr &&
      hooks_.access->window_total() > 0) {
    const std::vector<uint64_t> demand = hooks_.access->TakeWindow();
    // The optimizer's assignment rule on measured frequencies: seats go
    // hottest-measured-first. Ties break toward the lower page id, so
    // unmeasured pages keep their nominal hottest-first order and an
    // all-idle epoch re-seats nothing.
    std::vector<PageId> order(demand.size());
    for (PageId p = 0; p < static_cast<PageId>(order.size()); ++p) {
      order[p] = p;
    }
    std::sort(order.begin(), order.end(),
              [&demand](PageId a, PageId b) {
                if (demand[a] != demand[b]) return demand[a] > demand[b];
                return a < b;
              });
    const PromotionMap::ReseatResult moved = perm_.Reseat(order);
    ++stats_.reopts;
    stats_.promotions += moved.promoted;
    stats_.demotions += moved.demoted;
    if (moved.promoted > 0 || moved.demoted > 0) rebuild = true;
  }

  if (hooks_.loss != nullptr && params_.max_promote > 0) {
    const std::vector<uint64_t> failures = hooks_.loss->TakeWindow();
    // The promotion candidates: lossy pages not already on the fastest
    // disk, worst loss first (ties: lower page id, deterministically).
    std::vector<PageId> candidates;
    for (PageId p = 0; p < static_cast<PageId>(failures.size()); ++p) {
      if (failures[p] > 0 && perm_.DiskOf(p) > 0) candidates.push_back(p);
    }
    std::sort(candidates.begin(), candidates.end(),
              [&failures](PageId a, PageId b) {
                if (failures[a] != failures[b])
                  return failures[a] > failures[b];
                return a < b;
              });
    if (candidates.size() > params_.max_promote) {
      candidates.resize(params_.max_promote);
    }
    for (PageId page : candidates) {
      if (perm_.Promote(page, failures)) {
        ++stats_.promotions;
        rebuild = true;
      }
    }
  }

  if (hooks_.pull != nullptr) {
    const pull::PullServer::EpochWindow window =
        hooks_.pull->TakeEpochWindow(now);
    const uint64_t new_slots =
        slot_control_.Decide(window.depth_mean, window.idle_rate);
    if (new_slots != slots_) {
      if (new_slots > slots_) {
        ++stats_.slot_grows;
      } else {
        ++stats_.slot_shrinks;
      }
      slots_ = new_slots;
      rebuild = true;
    }
  }

  if (rebuild) Rebuild(now);
  stats_.slot_history.push_back(slots_);
  stats_.final_slots = slots_;
  BCAST_TIMELINE(BCAST_TIMELINE_PTR(sim_),
                 Instant(obs::track::kController, "epoch", "adapt", now,
                         {{"epoch", static_cast<double>(stats_.epochs)},
                          {"pull_slots", static_cast<double>(slots_)},
                          {"promotions",
                           static_cast<double>(stats_.promotions)},
                          {"demotions",
                           static_cast<double>(stats_.demotions)},
                          {"rebuild", rebuild ? 1.0 : 0.0}}));

  const double next =
      now + static_cast<double>(params_.epoch_cycles) * period_;
  next_tick_ = next;
  sim_->ScheduleAt(
      next, [this, next] { Tick(next); }, des::EventKind::kController);
}

void Controller::Rebuild(double now) {
  ++stats_.rebuilds;
  // With a pull server the seat program is the hybrid program at the
  // current slot count; push-only it is the channel's initial program.
  std::optional<pull::HybridProgram> hybrid;
  if (hooks_.pull != nullptr) {
    Result<pull::HybridProgram> built =
        pull::GenerateHybridProgram(layout_, slots_);
    BCAST_CHECK(built.ok()) << built.status().ToString();
    hybrid = std::move(*built);
  }
  Result<BroadcastProgram> remapped =
      perm_.Apply(hybrid.has_value() ? hybrid->program : *seats_);
  BCAST_CHECK(remapped.ok()) << remapped.status().ToString();
  programs_.push_back(
      std::make_unique<BroadcastProgram>(std::move(*remapped)));
  hooks_.channel->SetProgram(programs_.back().get(), now);
  if (hybrid.has_value()) {
    hooks_.pull->SetLayout(std::move(hybrid->layout), now);
  }
  if (hooks_.on_switch) {
    hooks_.on_switch(programs_.back().get(),
                     hybrid.has_value() ? &hooks_.pull->layout() : nullptr,
                     now);
  }
  period_ = static_cast<double>(programs_.back()->period());
}

}  // namespace bcast::adapt
