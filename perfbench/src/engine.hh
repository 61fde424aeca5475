/**
 * @file
 * The in-process engine workloads (engine-contended, engine-gated):
 * cells of runtime::Simulator::run on one reused engine, checked
 * against frozen dump digests.
 */

#ifndef PERFBENCH_ENGINE_HH
#define PERFBENCH_ENGINE_HH

#include "common.hh"

namespace perfbench
{

/** True for the workload names this file runs. */
bool isEngineWorkload(const std::string &name);

/** One run (untraced or traced) of an engine workload. */
Result runEngineWorkload(const Options &opt);

/** Recompute every engine cell's digest for every pool seed. */
void freezeDigests(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_ENGINE_HH
