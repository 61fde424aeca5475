#include "workloads/stream.hh"

#include <bit>
#include <cstdint>

#include "workloads/synthetic.hh"

namespace hdrd::workloads
{

namespace
{

/**
 * Scale a base region size and round up to a power of two, so the
 * sweep generator's cheap mask addressing applies and per-thread
 * slices of a 4-thread program stay powers of two themselves.
 */
std::uint64_t
scaledBytes(std::uint64_t base, double scale)
{
    const double v = static_cast<double>(base) * scale;
    const auto bytes = v < 4096.0 ? std::uint64_t{4096}
                                  : static_cast<std::uint64_t>(v);
    return std::bit_ceil(bytes);
}

} // namespace

std::unique_ptr<runtime::Program>
makeStreamScan(const WorkloadParams &params)
{
    Builder b("stream.scan", params.nthreads, params.seed);
    // 16 MiB at scale 1; 128 MiB (16M granules) at scale 8.
    const Region data = b.alloc(scaledBytes(16u << 20, params.scale));
    const std::uint64_t bar = b.newBarrier();
    for (int pass = 0; pass < 2; ++pass) {
        for (ThreadId t = 0; t < params.nthreads; ++t) {
            const Region slice = data.slice(t, params.nthreads);
            b.sweep(t, slice, slice.words(), 0.3);
        }
        b.barrierAll(bar);
    }
    return b.build();
}

std::unique_ptr<runtime::Program>
makeStreamSharedMix(const WorkloadParams &params)
{
    Builder b("stream.shared_mix", params.nthreads, params.seed);
    // 1 MiB at scale 1; 8 MiB at scale 8. Smaller than the private
    // streams on purpose: every multi-reader granule inflates to a
    // pooled vector clock, which dominates footprint here.
    const Region data = b.alloc(scaledBytes(1u << 20, params.scale));
    for (ThreadId t = 0; t < params.nthreads; ++t)
        b.sweep(t, data, data.words(), 0.02, /*random=*/true);
    return b.build();
}

std::unique_ptr<runtime::Program>
makeStreamHotCold(const WorkloadParams &params)
{
    Builder b("stream.hot_cold", params.nthreads, params.seed);
    // Hot set fixed at 256 KiB (cache-resident at any scale); cold
    // region 8 MiB at scale 1, 64 MiB at scale 8.
    const Region hot = b.alloc(256u << 10);
    const Region cold = b.alloc(scaledBytes(8u << 20, params.scale));
    const std::uint64_t per_thread = cold.words() / params.nthreads;
    // Ten alternating bursts per thread, per_thread accesses in all:
    // 90% of accesses stay hot, 10% random-walk the thread's private
    // cold slice (~3 touches per 32-granule shadow chunk, so about
    // 96% of the cold shadow footprint materializes).
    for (ThreadId t = 0; t < params.nthreads; ++t) {
        const Region hot_slice = hot.slice(t, params.nthreads);
        const Region cold_slice = cold.slice(t, params.nthreads);
        for (int burst = 0; burst < 10; ++burst) {
            b.sweep(t, hot_slice, (per_thread * 9) / 100, 0.5,
                    /*random=*/true);
            b.sweep(t, cold_slice, per_thread / 100, 0.3,
                    /*random=*/true);
        }
    }
    return b.build();
}

} // namespace hdrd::workloads
