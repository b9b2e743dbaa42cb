#include "core/profiler.hpp"

#include <atomic>
#include <mutex>
#include <stdexcept>

#include "runtime/parallel_for.hpp"

namespace sidis::core {

namespace {

/// One independent unit of the campaign: a class corpus or a register corpus.
struct CampaignItem {
  enum class Kind { kClass, kRd, kRr } kind = Kind::kClass;
  std::size_t class_idx = 0;   ///< Kind::kClass
  std::uint8_t reg = 0;        ///< Kind::kRd / kRr
  std::uint64_t seed = 0;      ///< private RNG stream
  std::string name;            ///< progress label
};

}  // namespace

ProfilingData profile_device(const sim::AcquisitionCampaign& campaign,
                             const ProfilerConfig& config, std::mt19937_64& rng,
                             const ProfilerProgress& progress) {
  std::vector<std::size_t> classes = config.classes;
  if (classes.empty()) {
    classes.resize(avr::num_instruction_classes());
    for (std::size_t i = 0; i < classes.size(); ++i) classes[i] = i;
  }
  std::vector<std::uint8_t> registers = config.registers;
  if (config.profile_registers && registers.empty()) {
    for (int r = 0; r < 32; ++r) registers.push_back(static_cast<std::uint8_t>(r));
  }

  // Flatten the campaign into independent items, each with its own RNG
  // stream drawn from the caller's rng in campaign order.  This is what
  // makes the corpus worker-count-invariant: captures never share a stream,
  // so scheduling cannot reorder anyone's draws.
  std::vector<CampaignItem> items;
  for (std::size_t cls : classes) {
    items.push_back({CampaignItem::Kind::kClass, cls, 0, rng(),
                     std::string(avr::instruction_classes()[cls].name)});
  }
  if (config.profile_registers) {
    for (std::uint8_t r : registers) {
      items.push_back(
          {CampaignItem::Kind::kRd, 0, r, rng(), "Rd" + std::to_string(r)});
    }
    for (std::uint8_t r : registers) {
      items.push_back(
          {CampaignItem::Kind::kRr, 0, r, rng(), "Rr" + std::to_string(r)});
    }
  }

  std::vector<sim::TraceSet> results(items.size());
  std::mutex progress_mutex;  // serializes the callback (API contract)
  std::size_t done = 0;
  std::atomic<bool> aborted{false};

  runtime::parallel_for(items.size(), config.workers, [&](std::size_t i) {
    if (aborted.load(std::memory_order_relaxed)) return;  // skip, don't capture
    const CampaignItem& item = items[i];
    std::mt19937_64 item_rng(item.seed);
    switch (item.kind) {
      case CampaignItem::Kind::kClass:
        results[i] = campaign.capture_class(item.class_idx, config.traces_per_class,
                                            config.num_programs, item_rng);
        break;
      case CampaignItem::Kind::kRd:
        results[i] = campaign.capture_register(true, item.reg,
                                               config.traces_per_register,
                                               config.num_programs, item_rng);
        break;
      case CampaignItem::Kind::kRr:
        results[i] = campaign.capture_register(false, item.reg,
                                               config.traces_per_register,
                                               config.num_programs, item_rng);
        break;
    }
    if (progress) {
      std::lock_guard lock(progress_mutex);
      ++done;
      if (!progress(done, items.size(), item.name)) {
        aborted.store(true, std::memory_order_relaxed);
      }
    }
  });
  if (aborted.load()) {
    throw std::runtime_error("profile_device: aborted by progress callback");
  }

  ProfilingData data;
  for (std::size_t i = 0; i < items.size(); ++i) {
    switch (items[i].kind) {
      case CampaignItem::Kind::kClass:
        data.classes[items[i].class_idx] = std::move(results[i]);
        break;
      case CampaignItem::Kind::kRd:
        data.rd_classes[items[i].reg] = std::move(results[i]);
        break;
      case CampaignItem::Kind::kRr:
        data.rr_classes[items[i].reg] = std::move(results[i]);
        break;
    }
  }
  return data;
}

}  // namespace sidis::core
