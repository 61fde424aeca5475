/**
 * @file
 * The service-buffered workload: a real hdrd_served child process and
 * one load-generator process whose closed-loop connection pipelines
 * buffered jobs; the traced run adds a phase of streamed jobs back to
 * back. Costs are the daemon's CPU time.
 */

#ifndef PERFBENCH_SERVICE_HH
#define PERFBENCH_SERVICE_HH

#include "common.hh"

namespace perfbench
{

/** True for the workload name this file runs. */
bool isServiceWorkload(const std::string &name);

/** One run (untraced or traced) of the service workload. */
Result runServiceWorkload(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_SERVICE_HH
