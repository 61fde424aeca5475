#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>

#include <malloc.h>
#include <unistd.h>

#include "common/alloc_stats.hh"

namespace perfbench
{

void
printResult(const Result &result)
{
    std::string line = "{\"correct\": ";
    line += result.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(result.attempted);
    line += ", \"failed\": " + std::to_string(result.failed);
    line += ", \"metrics\": {";
    const char *sep = "";
    for (const Metric &m : result.metrics) {
        char value[64];
        // %.17g keeps every digit the measurement has.
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        line += sep;
        line += "\"" + m.name + "\": {\"value\": " + value
            + ", \"unit\": \"" + m.unit + "\"}";
        sep = ", ";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

void
die(const std::string &message)
{
    std::fprintf(stderr, "perfbench: %s\n", message.c_str());
    std::exit(1);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t at = rank < 1.0
        ? 0
        : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
    return v[at];
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

double
threadCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
        + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
processCpuSeconds(const std::string &pid)
{
    if (pid == "self") {
        timespec ts{};
        ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec)
            + static_cast<double>(ts.tv_nsec) * 1e-9;
    }
    std::ifstream in("/proc/" + pid + "/stat");
    std::string stat;
    std::getline(in, stat);
    // The command name may hold spaces; the fields after it do not.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(stat.substr(close + 2));
    std::string skip;
    for (int field = 3; field < 14; ++field)
        fields >> skip;
    unsigned long long utime = 0, stime = 0;
    fields >> utime >> stime;
    return static_cast<double>(utime + stime)
        / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void
resetPeakRssWatermark()
{
    ::malloc_trim(0);
    hdrd::resetPeakRss();
}

std::uint64_t
peakRssKbOf(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Span &s : spans_) {
        out << "{\"layer\": \"" << s.layer << "\", \"what\": \""
            << s.what << "\", \"owner\": \"" << s.owner
            << "\", \"start_us\": " << s.start_us
            << ", \"end_us\": " << s.end_us
            << ", \"calls\": " << s.calls << "}\n";
    }
    return static_cast<bool>(out);
}

void
writeSpans(const Options &opt, const SpanLog &spans)
{
    const std::string path = opt.out_dir + "/perfbench-spans-"
        + opt.workload + (opt.trace ? "-traced" : "") + ".jsonl";
    if (!spans.write(path))
        die("cannot write " + path);
}

} // namespace perfbench
