/**
 * @file
 * Fleet result aggregation: merge per-daemon report and metrics
 * documents into placement-independent cluster documents.
 *
 * The core invariant is byte stability: a fleet sweep's
 * hdrd-report-cluster-v1 output depends only on the multiset of
 * per-job reports, never on which daemon ran a job, in what order
 * responses arrived, or how many daemons the fleet had. That makes
 * `cmp` against a single-daemon golden the whole correctness oracle
 * for failover (a lost job changes the job count; a duplicated job
 * adds a report; a rerouted job changes nothing).
 *
 * Reports sort by their embedded "trace" name with the full report
 * bytes as tiebreak, so identical repeats (--repeat) stay — they are
 * evidence of how many times each job completed. Documents merge
 * associatively: merging the cluster files of two partial sweeps
 * yields the same bytes as one client writing the cluster file for
 * the whole sweep directly. A single daemon is a fleet of one, so
 * this is hdrd_client's only aggregate format.
 *
 * Metrics merge into hdrd-metrics-cluster-v1: counters and gauges
 * sum across daemons; histogram summaries combine count/min/max and
 * the count-weighted mean (percentiles are not mergeable from
 * summaries and are dropped).
 */

#ifndef HDRD_SERVICE_CLUSTER_HH
#define HDRD_SERVICE_CLUSTER_HH

#include <string>
#include <vector>

namespace hdrd::service
{

/**
 * The embedded "trace" value of one hdrd-report-v1 document
 * ("" when absent). The primary cluster sort key.
 */
std::string reportTraceName(const std::string &report_json);

/**
 * Split an hdrd-report-cluster-v1 document into its per-job report
 * byte spans (each "{...}", no trailing newline). String-aware brace
 * matching; no JSON library.
 * @return false with @p err set on a malformed document.
 */
bool splitAggregate(const std::string &doc,
                    std::vector<std::string> &reports,
                    std::string &err);

/**
 * Serialize the canonical cluster document from individual report
 * JSONs (any order, any trailing whitespace): reports sorted by
 * (trace, bytes), a job count, and summed race totals.
 */
std::string writeClusterReport(std::vector<std::string> reports);

/**
 * Merge hdrd-metrics-v1 (or cluster) snapshots into one
 * hdrd-metrics-cluster-v1 document.
 */
std::string mergeMetrics(const std::vector<std::string> &docs);

} // namespace hdrd::service

#endif // HDRD_SERVICE_CLUSTER_HH
