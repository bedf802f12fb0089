/**
 * @file
 * In-memory span recording for the traced benchmark run, plus the
 * small statistics helpers the report uses (percentiles with a sample
 * floor, self time from nested spans, metric-name validation).
 */

#ifndef TPBENCH_SPANS_HPP
#define TPBENCH_SPANS_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

namespace tpbench {

/** Host nanoseconds on a monotonic clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The library calls a traced run records a span around. */
enum class Layer : std::uint8_t {
    Job,               ///< one simulation or one campaign (root span)
    MakeTopology,
    NetworkCtor,
    InjectorStep,
    NetworkStep,
    NetworkSkipTo,
    MetricsTick,
    MetricsSkipIdle,
    FaultApply,
    WatchdogObserve,
    WatchdogSkipTo,
    FinalCheck,        ///< Watchdog::finalCheck + DeliveryOracle::finalCheck
    CheckpointWrite,
    Count,
};

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);

const char *layerName(Layer l);

struct Span
{
    std::int64_t start = 0;   ///< ns, nowNs()
    std::int64_t end = 0;
    /// Time of aggregated (span-less) calls made while this span was
    /// the innermost open one; counted as covered by children.
    std::int64_t hookNs = 0;
    std::int32_t parent = -1; ///< index into the recorder, -1 = root
    std::uint32_t job = 0;    ///< shared by all spans of one job
    Layer layer = Layer::Job;
};

/**
 * Spans in call order. Spans nest strictly (open/close follow the call
 * stack), so a span's parent is whatever was innermost when it opened.
 * A disabled recorder records nothing.
 */
class SpanRecorder
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    std::int32_t open(Layer l);
    void close(std::int32_t idx);

    /** Charge @p ns of span-less work to the innermost open span. */
    void addHookTime(std::int64_t ns);

    void setJob(std::uint32_t job) { job_ = job; }
    std::uint32_t job() const { return job_; }

    const std::vector<Span> &spans() const { return spans_; }
    void clear();

  private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
    std::uint32_t job_ = 0;
    bool enabled_ = true;
};

/** RAII span around one call. */
class Scope
{
  public:
    Scope(SpanRecorder &rec, Layer l) : rec_(rec), idx_(rec.open(l)) {}
    ~Scope() { rec_.close(idx_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &rec_;
    std::int32_t idx_;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by its child spans (union, clipped to the parent) and minus
 * its aggregated hook time.
 */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/** Per-layer totals of self time (ns) over @p spans. */
std::array<std::int64_t, kLayers> layerSelfNs(
    const std::vector<Span> &spans, const std::vector<std::int64_t> &self);

/** Median (mean of the middle two for even counts); 0 when empty. */
double median(std::vector<double> v);

/**
 * The @p q quantile (0 < q < 1) by nearest rank, defined only when at
 * least ten samples lie beyond it: n * (1 - q) >= 10. @return false
 * (and leaves @p out alone) when the sample is too small.
 */
bool tailQuantile(std::vector<double> v, double q, double *out);

/**
 * The highest of p50, p75, p90, p95, p99, p99.9 that @p n samples
 * support with at least ten samples beyond it; 0 when n < 20.
 */
double highestSupportedQuantile(std::size_t n);

/** Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter/digit. */
bool validMetricName(std::string_view name);

} // namespace tpbench

#endif // TPBENCH_SPANS_HPP
