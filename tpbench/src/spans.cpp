#include "spans.hpp"

#include <algorithm>
#include <cmath>

namespace tpbench {

const char *
layerName(Layer l)
{
    switch (l) {
      case Layer::Job:             return "job";
      case Layer::MakeTopology:    return "makeTopology";
      case Layer::NetworkCtor:     return "Network::Network";
      case Layer::InjectorStep:    return "Injector::step";
      case Layer::NetworkStep:     return "Network::step";
      case Layer::NetworkSkipTo:   return "Network::skipTo";
      case Layer::MetricsTick:     return "MetricsRegistry::tick";
      case Layer::MetricsSkipIdle: return "MetricsRegistry::skipIdle";
      case Layer::FaultApply:      return "FaultSchedule::apply";
      case Layer::WatchdogObserve: return "Watchdog::observe";
      case Layer::WatchdogSkipTo:  return "Watchdog::skipTo";
      case Layer::FinalCheck:      return "finalCheck";
      case Layer::CheckpointWrite: return "writeCampaignCheckpoint";
      case Layer::Count:           break;
    }
    return "?";
}

std::int32_t
SpanRecorder::open(Layer l)
{
    if (!enabled_)
        return -1;
    Span s;
    s.layer = l;
    s.job = job_;
    s.parent = stack_.empty() ? -1 : stack_.back();
    const auto idx = static_cast<std::int32_t>(spans_.size());
    stack_.push_back(idx);
    s.start = nowNs();
    spans_.push_back(s);
    return idx;
}

void
SpanRecorder::close(std::int32_t idx)
{
    if (idx < 0)
        return;
    spans_[static_cast<std::size_t>(idx)].end = nowNs();
    stack_.pop_back();
}

void
SpanRecorder::addHookTime(std::int64_t ns)
{
    if (!stack_.empty())
        spans_[static_cast<std::size_t>(stack_.back())].hookNs += ns;
}

void
SpanRecorder::clear()
{
    spans_.clear();
    stack_.clear();
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::int32_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0)
            children[static_cast<std::size_t>(spans[i].parent)].push_back(
                static_cast<std::int32_t>(i));
    }
    std::vector<std::int64_t> self(spans.size());
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        iv.clear();
        for (std::int32_t c : children[i]) {
            const Span &s = spans[static_cast<std::size_t>(c)];
            const std::int64_t a = std::max(s.start, p.start);
            const std::int64_t b = std::min(s.end, p.end);
            if (a < b)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, curA = 0, curB = 0;
        bool have = false;
        for (const auto &[a, b] : iv) {
            if (have && a <= curB) {
                curB = std::max(curB, b);
                continue;
            }
            if (have)
                covered += curB - curA;
            curA = a;
            curB = b;
            have = true;
        }
        if (have)
            covered += curB - curA;
        self[i] = std::max<std::int64_t>(
            0, (p.end - p.start) - covered - p.hookNs);
    }
    return self;
}

std::array<std::int64_t, kLayers>
layerSelfNs(const std::vector<Span> &spans,
            const std::vector<std::int64_t> &self)
{
    std::array<std::int64_t, kLayers> t{};
    for (std::size_t i = 0; i < spans.size(); ++i)
        t[static_cast<std::size_t>(spans[i].layer)] += self[i];
    return t;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool
tailQuantile(std::vector<double> v, double q, double *out)
{
    const double beyond = static_cast<double>(v.size()) * (1.0 - q);
    if (v.empty() || q <= 0.0 || q >= 1.0 || beyond < 10.0 - 1e-9)
        return false;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest value with at least q of the sample at
    // or below it.
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size()) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    *out = v[rank - 1];
    return true;
}

double
highestSupportedQuantile(std::size_t n)
{
    static constexpr double ladder[] = {0.999, 0.99, 0.95, 0.90, 0.75, 0.5};
    for (double q : ladder) {
        if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9)
            return q;
    }
    return 0.0;
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    for (char c : name) {
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    }
    return true;
}

} // namespace tpbench
