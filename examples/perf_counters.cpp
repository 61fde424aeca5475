/**
 * @file
 * The real-hardware path: open Linux perf_event counters (the same
 * kernel interface the paper's detector programs for HITM sampling),
 * count a busy loop, and report — degrading gracefully when the
 * kernel forbids perf (common in containers).
 *
 * Also demonstrates the modelled PMU side by side, which is what
 * every experiment in this repository actually runs on.
 */

#include <cstdint>
#include <cstdio>

#include "perf/perf_event.hh"
#include "pmu/pmu.hh"

using namespace hdrd;

namespace
{

void
demoRealCounters()
{
    std::printf("-- real perf_event counters (this machine) --\n");
    if (!perf::perfAvailable()) {
        perf::PerfCounter probe(perf::HwEvent::kInstructions);
        std::printf("perf_event_open unavailable: %s\n",
                    probe.error().c_str());
        std::printf("(expected in sandboxes; all experiments use the "
                    "modelled PMU instead)\n");
        return;
    }

    const perf::HwEvent events[] = {
        perf::HwEvent::kInstructions,
        perf::HwEvent::kCpuCycles,
        perf::HwEvent::kCacheReferences,
        perf::HwEvent::kCacheMisses,
    };
    for (const auto event : events) {
        perf::PerfCounter counter(event);
        if (!counter.available()) {
            std::printf("%-18s unavailable (%s)\n",
                        perf::hwEventName(event),
                        counter.error().c_str());
            continue;
        }
        counter.start();
        volatile std::uint64_t sink = 0;
        for (int i = 0; i < 2000000; ++i)
            sink = sink + static_cast<std::uint64_t>(i) * 3;
        counter.stop();
        const auto value = counter.read();
        std::printf("%-18s %llu\n", perf::hwEventName(event),
                    static_cast<unsigned long long>(
                        value.value_or(0)));
    }
}

void
demoModelledPmu()
{
    std::printf("\n-- modelled PMU (what the experiments run on) --\n");
    pmu::Pmu pmu(2);
    std::uint64_t interrupts = 0;
    pmu.setOverflowHandler([&](CoreId core, pmu::EventType event) {
        ++interrupts;
        std::printf("  overflow interrupt: core %u, event %s\n",
                    core, pmu::eventName(event));
    });
    // Arm the paper's configuration: interrupt on every HITM load,
    // with a 4-op skid.
    pmu.armAll({.event = pmu::EventType::kHitmLoad,
                .sample_after = 1,
                .skid = 4});

    // Simulate some traffic: 2 HITM loads among ordinary ops.
    for (int op = 0; op < 40; ++op) {
        if (op == 10 || op == 25)
            pmu.recordEvent(0, pmu::EventType::kHitmLoad);
        pmu.recordEvent(0, pmu::EventType::kLoads);
        pmu.retireOp(0);
    }
    std::printf("  core 0 counted %llu loads, %llu hitm loads, "
                "%llu interrupts delivered\n",
                static_cast<unsigned long long>(
                    pmu.count(0, pmu::EventType::kLoads)),
                static_cast<unsigned long long>(
                    pmu.count(0, pmu::EventType::kHitmLoad)),
                static_cast<unsigned long long>(interrupts));
}

} // namespace

int
main()
{
    demoRealCounters();
    demoModelledPmu();
    return 0;
}
