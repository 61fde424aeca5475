/**
 * @file
 * A small named-statistics registry.
 *
 * Modules register counters and scalars against a StatGroup; the
 * benches and examples dump groups in a stable, diff-friendly text
 * format. This is deliberately much simpler than gem5's stats package:
 * plain counters, scalars, and formulas evaluated at dump time.
 */

#ifndef HDRD_COMMON_STATS_HH
#define HDRD_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>

namespace hdrd
{

/**
 * A group of named statistics.
 *
 * Counters are owned by the group and addressed by name; formula
 * entries are evaluated lazily when the group is dumped so ratios stay
 * consistent with their inputs.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name);

    /** Group name (used as the dump prefix). */
    const std::string &name() const { return name_; }

    /** Add @p delta to the counter @p stat, creating it at zero. */
    void inc(const std::string &stat, std::uint64_t delta = 1);

    /**
     * Stable pointer to the counter @p stat's cell, creating it at
     * zero. Hot paths fetch the cell once and bump through it,
     * skipping the per-event name lookup. Valid for the group's
     * lifetime: reset() zeroes cells in place.
     */
    std::uint64_t *counterCell(const std::string &stat);

    /** Set the scalar @p stat to @p value, creating it if needed. */
    void set(const std::string &stat, double value);

    /** Current counter value (0 if never touched). */
    std::uint64_t counter(const std::string &stat) const;

    /** Current scalar value (0.0 if never touched). */
    double scalar(const std::string &stat) const;

    /**
     * Register a formula evaluated at dump() time.
     * @param stat name of the derived statistic
     * @param fn callable producing the value from this group
     */
    void formula(const std::string &stat,
                 std::function<double(const StatGroup &)> fn);

    /**
     * Reset all counters and scalars to zero, in place (entries and
     * cells stay); formulas persist.
     */
    void reset();

    /** Write "group.stat value" lines, sorted by stat name. */
    void dump(std::ostream &os) const;

  private:
    std::string name_;
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> scalars_;
    std::map<std::string, std::function<double(const StatGroup &)>>
        formulas_;
};

} // namespace hdrd

#endif // HDRD_COMMON_STATS_HH
