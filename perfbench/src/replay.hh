/**
 * @file
 * Replay a captured window through each engine layer's public
 * functions, outside the engine.
 *
 * First a coupled replay drives every layer together — the cache
 * hierarchy, the PMU, the demand controller and the detector with its
 * sync clocks — in the captured order, using runtime::SyncObjects for
 * blocking, and logs each layer's calls. It must reproduce the
 * window's hitm_loads and races_unique exactly (the replay-fidelity
 * gate). Then each layer replays its own call log alone under timed
 * spans, which gives its cost per call without the others in between.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <string>

#include "capture.hh"
#include "common.hh"

namespace perfbench
{

/** Per-layer totals of one or more replayed windows. */
struct LayerCosts
{
    /** Ops executed in the replayed windows. */
    std::uint64_t window_ops = 0;

    double mem_ns = 0.0;
    std::uint64_t mem_calls = 0;
    std::uint64_t l1_hits = 0;

    double pmu_ns = 0.0;
    std::uint64_t pmu_calls = 0;

    double demand_ns = 0.0;
    std::uint64_t demand_calls = 0;

    double detect_ns = 0.0;
    std::uint64_t detect_calls = 0;

    /** Sum over windows of the detector pass's RSS growth. */
    double detect_rss_mb = 0.0;
    std::uint64_t windows = 0;

    /** TraceReader::next over the window encoded as TRC2. */
    double decode_ns = 0.0;
    std::uint64_t decode_records = 0;

    void add(const LayerCosts &o);
};

/**
 * Time trace::TraceReader::next over a whole TRC2 image (median of
 * three decodes; spans go to @p spans).
 * @param records out: records decoded
 * @return nanoseconds for one decode
 */
double decodeNs(const std::string &bytes, SpanLog &spans,
                const std::string &owner, std::uint64_t &records);

/**
 * Replay @p capture: coupled pass, fidelity gate, then one timed
 * pass per layer (spans go to @p spans). @p scratch_trace is a file
 * path the decode measurement may write.
 * @return false with @p err set when the replay does not reproduce
 *         the engine's hitm_loads or races_unique for the window.
 */
bool replayWindow(const CellCapture &capture,
                  const std::string &scratch_trace, SpanLog &spans,
                  LayerCosts &costs, std::string &err);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
