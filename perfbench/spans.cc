#include "spans.hh"

#include <algorithm>
#include <utility>

namespace perfbench {

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
SpanLog::open(const char *name, int parent, int cell)
{
    const std::int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now, now, parent, cell, pass_});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::close(int index)
{
    const std::int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = now;
}

std::map<std::string, SpanTotals>
SpanLog::totals(int pass) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans_.size());
    for (const Span &s : spans_) {
        if (s.pass == pass && s.parent >= 0) {
            children[static_cast<std::size_t>(s.parent)].push_back(
                {s.start_ns, s.end_ns});
        }
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.pass != pass)
            continue;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Length of the union of the children's intervals, clipped
        // to the parent's.
        std::int64_t covered = 0;
        std::int64_t reach = s.start_ns;
        for (const auto &[start, end] : kids) {
            const std::int64_t from = std::max(start, reach);
            const std::int64_t to = std::min(end, s.end_ns);
            if (to > from) {
                covered += to - from;
                reach = to;
            }
        }
        SpanTotals &t = out[s.name];
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += s.end_ns - s.start_ns - covered;
        ++t.count;
    }
    return out;
}

void
SpanLog::write(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "  {\"id\": " << i << ", \"name\": \"" << s.name
           << "\", \"start_ns\": " << s.start_ns
           << ", \"end_ns\": " << s.end_ns
           << ", \"parent\": " << s.parent << ", \"cell\": " << s.cell
           << ", \"pass\": " << s.pass << "}"
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]";
}

} // namespace perfbench
