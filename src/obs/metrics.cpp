#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace bento::obs {

Registry& registry() {
  static Registry instance;
  return instance;
}

void detail::HistogramData::index_bounds() {
  for (std::size_t w = 0; w < first_bucket.size(); ++w) {
    std::size_t passed = 0;
    if (w > 0) {
      const std::int64_t lo = std::int64_t{1} << (w - 1);
      while (passed < bounds.size() && passed < 255 && bounds[passed] <= lo) ++passed;
    }
    first_bucket[w] = static_cast<std::uint8_t>(passed);
  }
}

void detail::HistogramData::merge_into(HistogramCell& out) const {
  const std::size_t nb = bounds.size() + 1;
  out.name = name;
  out.bounds = bounds;
  out.buckets.assign(nb, 0);
  for (unsigned w = 0; w < kMaxMetricWorkers; ++w) {
    for (std::size_t i = 0; i < nb; ++i) out.buckets[i] += buckets[w * nb + i];
  }
  out.count = 0;
  out.sum = 0;
  out.min = std::numeric_limits<std::int64_t>::max();
  out.max = std::numeric_limits<std::int64_t>::min();
  for (const detail::HistogramSlot& s : slots) {
    out.count += s.count;
    out.sum += s.sum;
    if (s.min < out.min) out.min = s.min;
    if (s.max > out.max) out.max = s.max;
  }
}

Counter Registry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    auto cell = std::make_unique<detail::CounterData>();
    cell->name = std::string(name);
    it = counters_.emplace(std::string(name), std::move(cell)).first;
  }
  return Counter(it->second.get());
}

Gauge Registry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    auto cell = std::make_unique<detail::GaugeData>();
    cell->name = std::string(name);
    it = gauges_.emplace(std::string(name), std::move(cell)).first;
  }
  return Gauge(it->second.get());
}

Histogram Registry::histogram(std::string_view name,
                              std::span<const std::int64_t> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) {
      throw std::invalid_argument("Registry::histogram: empty bucket bounds");
    }
    if (!std::is_sorted(bounds.begin(), bounds.end()) ||
        std::adjacent_find(bounds.begin(), bounds.end()) != bounds.end()) {
      throw std::invalid_argument(
          "Registry::histogram: bounds must be strictly ascending");
    }
    auto cell = std::make_unique<detail::HistogramData>();
    cell->name = std::string(name);
    cell->bounds.assign(bounds.begin(), bounds.end());
    cell->index_bounds();
    cell->buckets.assign((bounds.size() + 1) * kMaxMetricWorkers, 0);
    it = histograms_.emplace(std::string(name), std::move(cell)).first;
  }
  return Histogram(it->second.get());
}

void Registry::reset() {
  for (auto& [name, cell] : counters_) {
    for (auto& s : cell->slots) s.value = 0;
  }
  for (auto& [name, cell] : gauges_) {
    for (auto& s : cell->slots) {
      s.value = 0;
      s.high_water = std::numeric_limits<std::int64_t>::min();
      s.touched = false;
    }
  }
  for (auto& [name, cell] : histograms_) {
    std::fill(cell->buckets.begin(), cell->buckets.end(), 0);
    for (auto& s : cell->slots) {
      s.count = 0;
      s.sum = 0;
      s.min = std::numeric_limits<std::int64_t>::max();
      s.max = std::numeric_limits<std::int64_t>::min();
    }
  }
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) {
    snap.counters.push_back(CounterCell{cell->name, cell->merged()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_) {
    snap.gauges.push_back(GaugeCell{cell->name, cell->merged_value(),
                                    cell->merged_high_water()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, cell] : histograms_) {
    HistogramCell merged;
    cell->merge_into(merged);
    snap.histograms.push_back(std::move(merged));
  }
  return snap;
}

std::string Snapshot::to_string() const {
  std::ostringstream os;
  os << "=== metrics snapshot ===\n";
  if (!counters.empty()) {
    os << "counters:\n";
    for (const auto& c : counters) os << "  " << c.name << " = " << c.value << "\n";
  }
  if (!gauges.empty()) {
    os << "gauges:\n";
    for (const auto& g : gauges) {
      os << "  " << g.name << " = " << g.value;
      if (g.high_water != std::numeric_limits<std::int64_t>::min()) {
        os << " (high-water " << g.high_water << ")";
      }
      os << "\n";
    }
  }
  for (const auto& h : histograms) {
    os << "histogram " << h.name << ": count=" << h.count;
    if (h.count > 0) {
      os << " sum=" << h.sum << " min=" << h.min << " max=" << h.max
         << " mean=" << (h.sum / static_cast<std::int64_t>(h.count));
    }
    os << "\n";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      os << "  ";
      if (i == 0) {
        os << "(-inf, " << h.bounds[0] << ")";
      } else if (i == h.bounds.size()) {
        os << "[" << h.bounds.back() << ", +inf)";
      } else {
        os << "[" << h.bounds[i - 1] << ", " << h.bounds[i] << ")";
      }
      os << " = " << h.buckets[i] << "\n";
    }
  }
  for (const auto& section : sections) {
    os << section;
    if (!section.empty() && section.back() != '\n') os << "\n";
  }
  return os.str();
}

void Snapshot::to_json(std::ostream& os) const {
  util::json::Writer w(os);
  w.begin_object().key("counters").begin_object();
  for (const CounterCell& c : counters) w.field(c.name, c.value);
  w.end_object().key("gauges").begin_object();
  for (const GaugeCell& g : gauges) {
    const std::int64_t high =
        g.high_water == std::numeric_limits<std::int64_t>::min() ? 0 : g.high_water;
    w.key(g.name).begin_object().field("value", g.value).field("high_water", high);
    w.end_object();
  }
  w.end_object().key("histograms").begin_object();
  for (const HistogramCell& h : histograms) {
    w.key(h.name).begin_object().field("count", h.count).field("sum", h.sum);
    w.field("min", h.count > 0 ? h.min : 0).field("max", h.count > 0 ? h.max : 0);
    w.key("buckets").begin_array();
    for (std::size_t j = 0; j < h.buckets.size(); ++j) {
      // [upper_bound, count]; the final overflow bucket has a null bound.
      w.begin_array();
      if (j < h.bounds.size()) {
        w.value(h.bounds[j]);
      } else {
        w.null();
      }
      w.value(h.buckets[j]).end_array();
    }
    w.end_array().end_object();
  }
  w.end_object().key("sections").begin_array();
  for (const std::string& section : sections) w.value(section);
  w.end_array().end_object();
  os << '\n';
}

std::string Snapshot::to_json() const { return util::json::to_string(*this); }

}  // namespace bento::obs
