#include "common/bench_json.hh"

#include <iomanip>
#include <map>

namespace hdrd::benchjson
{

namespace
{

/** Minimal JSON string escaping (names here are plain identifiers). */
std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

struct ModeAgg
{
    double wall = 0.0;
    std::uint64_t ops = 0;
};

} // namespace

double
continuousFtOpsPerSec(const std::vector<BenchCell> &cells)
{
    double wall = 0.0;
    std::uint64_t ops = 0;
    for (const BenchCell &c : cells) {
        if (c.mode == "continuous" && c.detector == "fasttrack") {
            wall += c.wall_seconds;
            ops += c.sim_ops;
        }
    }
    return wall > 0.0 ? static_cast<double>(ops) / wall : 0.0;
}

void
writeBenchJson(std::ostream &os, const BenchMeta &meta,
               const std::vector<BenchCell> &cells)
{
    os << std::setprecision(12);
    os << "{\n"
       << "  \"schema\": \"hdrd-bench-v2\",\n"
       << "  \"tool\": \"" << escape(meta.tool) << "\",\n"
       << "  \"config\": {\n"
       << "    \"scale\": " << meta.scale << ",\n"
       << "    \"seed\": " << meta.seed << ",\n"
       << "    \"threads\": " << meta.threads << ",\n"
       << "    \"cores\": " << meta.cores << ",\n"
       << "    \"workers\": " << meta.workers << ",\n"
       << "    \"repeat\": " << meta.repeat << ",\n"
       << "    \"smoke\": " << (meta.smoke ? "true" : "false") << ",\n"
       << "    \"tier\": \"" << escape(meta.tier) << "\",\n"
       << "    \"host\": \"" << escape(meta.host) << "\",\n"
       << "    \"build\": \"" << escape(meta.build) << "\",\n"
       << "    \"alloc_tracked\": "
       << (meta.alloc_tracked ? "true" : "false") << "\n"
       << "  },\n";

    if (meta.baseline_continuous_ft_ops > 0.0) {
        os << "  \"baseline\": {\n"
           << "    \"continuous_fasttrack_ops_per_sec\": "
           << meta.baseline_continuous_ft_ops << "\n"
           << "  },\n";
    }

    os << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const BenchCell &c = cells[i];
        os << "    {\"workload\": \"" << escape(c.workload)
           << "\", \"suite\": \"" << escape(c.suite)
           << "\", \"mode\": \"" << escape(c.mode)
           << "\", \"detector\": \"" << escape(c.detector)
           << "\", \"wall_seconds\": " << c.wall_seconds
           << ", \"sim_ops\": " << c.sim_ops
           << ", \"sim_mem_accesses\": " << c.sim_mem_accesses
           << ", \"sim_wall_cycles\": " << c.sim_wall_cycles
           << ", \"races_unique\": " << c.races_unique
           << ", \"host_ops_per_sec\": " << c.host_ops_per_sec
           << ", \"alloc_count\": " << c.alloc_count
           << ", \"alloc_bytes\": " << c.alloc_bytes
           << ", \"scale\": " << c.scale
           << ", \"peak_rss_kb\": " << c.peak_rss_kb
           << ", \"checked\": " << (c.checked ? "true" : "false")
           << ", \"deterministic\": "
           << (c.deterministic ? "true" : "false") << "}"
           << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    os << "  ],\n";

    double total_wall = 0.0;
    std::uint64_t total_ops = 0;
    std::uint64_t total_allocs = 0;
    std::uint64_t total_alloc_bytes = 0;
    std::map<std::string, ModeAgg> by_mode;
    bool all_deterministic = true;
    for (const BenchCell &c : cells) {
        total_wall += c.wall_seconds;
        total_ops += c.sim_ops;
        total_allocs += c.alloc_count;
        total_alloc_bytes += c.alloc_bytes;
        by_mode[c.mode].wall += c.wall_seconds;
        by_mode[c.mode].ops += c.sim_ops;
        all_deterministic = all_deterministic && c.deterministic;
    }
    const double cont_ft = continuousFtOpsPerSec(cells);

    os << "  \"summary\": {\n"
       << "    \"cells\": " << cells.size() << ",\n"
       << "    \"total_wall_seconds\": " << total_wall << ",\n"
       << "    \"total_sim_ops\": " << total_ops << ",\n"
       << "    \"total_alloc_count\": " << total_allocs << ",\n"
       << "    \"total_alloc_bytes\": " << total_alloc_bytes << ",\n"
       << "    \"peak_rss_kb\": " << meta.peak_rss_kb << ",\n"
       << "    \"aggregate_host_ops_per_sec\": "
       << (total_wall > 0.0
               ? static_cast<double>(total_ops) / total_wall
               : 0.0)
       << ",\n"
       << "    \"per_mode_ops_per_sec\": {";
    bool first = true;
    for (const auto &[mode, agg] : by_mode) {
        os << (first ? "" : ", ") << "\"" << escape(mode) << "\": "
           << (agg.wall > 0.0
                   ? static_cast<double>(agg.ops) / agg.wall
                   : 0.0);
        first = false;
    }
    os << "},\n"
       << "    \"continuous_fasttrack_ops_per_sec\": " << cont_ft
       << ",\n";
    if (meta.baseline_continuous_ft_ops > 0.0) {
        os << "    \"speedup_vs_baseline\": "
           << cont_ft / meta.baseline_continuous_ft_ops << ",\n";
    }
    os << "    \"all_deterministic\": "
       << (all_deterministic ? "true" : "false") << "\n"
       << "  }\n"
       << "}\n";
}

} // namespace hdrd::benchjson
