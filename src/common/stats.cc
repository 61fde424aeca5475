#include "common/stats.hh"

#include <iomanip>
#include <utility>

namespace hdrd
{

StatGroup::StatGroup(std::string name) : name_(std::move(name))
{
}

void
StatGroup::inc(const std::string &stat, std::uint64_t delta)
{
    counters_[stat] += delta;
}

std::uint64_t *
StatGroup::counterCell(const std::string &stat)
{
    return &counters_[stat];
}

void
StatGroup::set(const std::string &stat, double value)
{
    scalars_[stat] = value;
}

std::uint64_t
StatGroup::counter(const std::string &stat) const
{
    auto it = counters_.find(stat);
    return it == counters_.end() ? 0 : it->second;
}

double
StatGroup::scalar(const std::string &stat) const
{
    auto it = scalars_.find(stat);
    return it == scalars_.end() ? 0.0 : it->second;
}

void
StatGroup::formula(const std::string &stat,
                   std::function<double(const StatGroup &)> fn)
{
    formulas_[stat] = std::move(fn);
}

void
StatGroup::reset()
{
    for (auto &entry : counters_)
        entry.second = 0;
    for (auto &entry : scalars_)
        entry.second = 0.0;
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &[stat, value] : counters_)
        os << name_ << '.' << stat << ' ' << value << '\n';
    os << std::setprecision(6);
    for (const auto &[stat, value] : scalars_)
        os << name_ << '.' << stat << ' ' << value << '\n';
    for (const auto &[stat, fn] : formulas_)
        os << name_ << '.' << stat << ' ' << fn(*this) << '\n';
}

} // namespace hdrd
