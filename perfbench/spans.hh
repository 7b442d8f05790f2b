/**
 * @file
 * Benchmark-side timing of the library's public calls.
 *
 * Every call the benchmark makes into a layer is wrapped in a Timed
 * scope. The scope always measures the call's host duration (the
 * end-to-end metrics need it); when a SpanLog is attached, which
 * happens only in traced passes, it also records a span: name, start,
 * end, parent span and cell id. Spans stay in memory and are written
 * once, when the benchmark ends. Nothing here touches the library:
 * spans come from outside the calls they time.
 */

#ifndef LOCSIM_PERFBENCH_SPANS_HH_
#define LOCSIM_PERFBENCH_SPANS_HH_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** One recorded call. Times are ns since the log's origin. */
struct Span
{
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1; //!< index of the enclosing span, -1 for a root
    int cell = -1;   //!< simulation cell the call served, -1 if none
    int pass = 0;    //!< traced pass the span belongs to
};

/** Per-name totals of one pass: duration and self time, in ns. */
struct SpanTotals
{
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::int64_t count = 0;
};

/** Thread-safe in-memory span store. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /** Open a span; returns its index (a parent for later spans). */
    int open(const char *name, int parent, int cell);
    void close(int index);

    /** Pass number stamped on spans opened from now on. */
    void setPass(int pass) { pass_ = pass; }

    /**
     * Totals by span name over the spans of @p pass. A span's self
     * time is its duration minus the union of its children's
     * intervals, so children that overlap (parallel cells) are not
     * subtracted twice.
     */
    std::map<std::string, SpanTotals> totals(int pass) const;

    /** Write every span as one JSON array. */
    void write(std::ostream &os) const;

  private:
    std::int64_t nowNs() const;

    Clock::time_point origin_;
    int pass_ = 0;
    mutable std::mutex mutex_; //!< guards spans_
    std::vector<Span> spans_;
};

/**
 * Times one call from outside. Always measures; records a span only
 * when @p log is non-null. A null log costs two clock reads.
 */
class Timed
{
  public:
    Timed(SpanLog *log, const char *name, int parent = -1,
          int cell = -1)
        : log_(log), start_(Clock::now())
    {
        if (log_ != nullptr)
            index_ = log_->open(name, parent, cell);
    }

    ~Timed() { stop(); }

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    /** Span index for children (-1 when not tracing). */
    int id() const { return index_; }

    /** End the call (idempotent); returns its duration in seconds. */
    double
    stop()
    {
        if (!stopped_) {
            seconds_ = std::chrono::duration<double>(Clock::now() -
                                                     start_)
                           .count();
            if (log_ != nullptr)
                log_->close(index_);
            stopped_ = true;
        }
        return seconds_;
    }

  private:
    SpanLog *log_;
    Clock::time_point start_;
    int index_ = -1;
    bool stopped_ = false;
    double seconds_ = 0.0;
};

} // namespace perfbench

#endif // LOCSIM_PERFBENCH_SPANS_HH_
