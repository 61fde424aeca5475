#include "service/cluster.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace hdrd::service
{

namespace
{

/** Strip trailing whitespace (reports arrive ending "}\n"). */
std::string
rstrip(std::string text)
{
    while (!text.empty()
           && (text.back() == '\n' || text.back() == '\r'
               || text.back() == ' ' || text.back() == '\t'))
        text.pop_back();
    return text;
}

/**
 * Advance past one JSON string starting at the opening quote.
 * @return index one past the closing quote (doc.size() on error).
 */
std::size_t
skipString(const std::string &doc, std::size_t at)
{
    ++at;  // opening quote
    while (at < doc.size()) {
        if (doc[at] == '\\')
            at += 2;
        else if (doc[at] == '"')
            return at + 1;
        else
            ++at;
    }
    return doc.size();
}

/**
 * Byte span of the balanced {...} starting at @p at.
 * @return index one past the closing brace, or npos when unbalanced.
 */
std::size_t
matchBraces(const std::string &doc, std::size_t at)
{
    int depth = 0;
    while (at < doc.size()) {
        const char c = doc[at];
        if (c == '"') {
            at = skipString(doc, at);
            continue;
        }
        if (c == '{') {
            ++depth;
        } else if (c == '}') {
            if (--depth == 0)
                return at + 1;
        }
        ++at;
    }
    return std::string::npos;
}

/** First integer following "key": inside @p json (false = absent). */
bool
findInt(const std::string &json, const std::string &key,
        std::int64_t &out)
{
    const std::string needle = "\"" + key + "\": ";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos)
        return false;
    out = std::strtoll(json.c_str() + at + needle.size(), nullptr,
                       10);
    return true;
}

bool
findDouble(const std::string &json, const std::string &key,
           double &out)
{
    const std::string needle = "\"" + key + "\": ";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos)
        return false;
    out = std::strtod(json.c_str() + at + needle.size(), nullptr);
    return true;
}

/**
 * Byte span of the {...} value of a top-level "key" in a metrics
 * document ("" when absent).
 */
std::string
sectionOf(const std::string &doc, const std::string &key)
{
    const std::string needle = "\"" + key + "\": {";
    const std::size_t at = doc.find(needle);
    if (at == std::string::npos)
        return "";
    const std::size_t open = at + needle.size() - 1;
    const std::size_t end = matchBraces(doc, open);
    if (end == std::string::npos)
        return "";
    return doc.substr(open, end - open);
}

/**
 * Iterate "name": value pairs inside a section span. Values are
 * either scalars (up to the next ',' / '\n') or one balanced {...}.
 */
std::vector<std::pair<std::string, std::string>>
pairsOf(const std::string &section)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::size_t at = section.find('"');
    while (at != std::string::npos && at < section.size()) {
        const std::size_t name_end = skipString(section, at);
        if (name_end >= section.size())
            break;
        const std::string name =
            section.substr(at + 1, name_end - at - 2);
        std::size_t value_at = section.find_first_not_of(
            ": \n", name_end);
        if (value_at == std::string::npos)
            break;
        std::size_t value_end;
        if (section[value_at] == '{') {
            value_end = matchBraces(section, value_at);
            if (value_end == std::string::npos)
                break;
        } else {
            value_end = section.find_first_of(",\n", value_at);
            if (value_end == std::string::npos)
                value_end = section.size();
        }
        out.emplace_back(
            name, section.substr(value_at, value_end - value_at));
        at = section.find('"', value_end);
    }
    return out;
}

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

} // namespace

std::string
reportTraceName(const std::string &report_json)
{
    const std::string needle = "\"trace\": \"";
    const std::size_t at = report_json.find(needle);
    if (at == std::string::npos)
        return "";
    const std::size_t start = at + needle.size();
    const std::size_t end = skipString(report_json, start - 1);
    if (end <= start || end > report_json.size())
        return "";
    return report_json.substr(start, end - start - 1);
}

bool
splitAggregate(const std::string &doc,
               std::vector<std::string> &reports, std::string &err)
{
    reports.clear();
    const std::string key = "\"reports\": [";
    const std::size_t open = doc.find(key);
    if (open == std::string::npos) {
        err = "no \"reports\" array";
        return false;
    }
    std::size_t at = open + key.size();
    while (at < doc.size()) {
        const char c = doc[at];
        if (c == ']')
            return true;
        if (c == '{') {
            const std::size_t end = matchBraces(doc, at);
            if (end == std::string::npos) {
                err = "unbalanced report braces";
                return false;
            }
            reports.push_back(doc.substr(at, end - at));
            at = end;
            continue;
        }
        if (c != ',' && c != '\n' && c != ' ' && c != '\t'
            && c != '\r') {
            err = std::string("unexpected byte '") + c
                + "' in report array";
            return false;
        }
        ++at;
    }
    err = "unterminated report array";
    return false;
}

std::string
writeClusterReport(std::vector<std::string> reports)
{
    for (std::string &report : reports)
        report = rstrip(report);
    // Placement independence: sort by the report's own trace name,
    // full bytes as tiebreak. Repeats collate adjacently and stay.
    std::sort(reports.begin(), reports.end(),
              [](const std::string &a, const std::string &b) {
                  const std::string ta = reportTraceName(a);
                  const std::string tb = reportTraceName(b);
                  return ta != tb ? ta < tb : a < b;
              });

    std::int64_t unique = 0, dynamic = 0;
    for (const std::string &report : reports) {
        std::int64_t v = 0;
        if (findInt(report, "unique", v))
            unique += v;
        if (findInt(report, "dynamic", v))
            dynamic += v;
    }

    std::string out;
    out += "{\n\"schema\": \"hdrd-report-cluster-v1\",\n";
    out += "\"jobs\": " + std::to_string(reports.size()) + ",\n";
    out += "\"races\": {\"unique\": " + std::to_string(unique)
        + ", \"dynamic\": " + std::to_string(dynamic) + "},\n";
    out += "\"reports\": [";
    const char *sep = "";
    for (const std::string &report : reports) {
        out += sep;
        out += "\n";
        out += report;
        out += "\n";
        sep = ",";
    }
    out += "]\n}\n";
    return out;
}

std::string
mergeMetrics(const std::vector<std::string> &docs)
{
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    struct Hist
    {
        std::int64_t count = 0;
        double mean_weight = 0.0;
        std::int64_t min = INT64_MAX;
        std::int64_t max = 0;
    };
    std::map<std::string, Hist> hists;

    for (const std::string &doc : docs) {
        for (const auto &[name, value] :
             pairsOf(sectionOf(doc, "counters")))
            counters[name] +=
                std::strtoll(value.c_str(), nullptr, 10);
        for (const auto &[name, value] :
             pairsOf(sectionOf(doc, "gauges")))
            gauges[name] +=
                std::strtoll(value.c_str(), nullptr, 10);
        for (const auto &[name, value] :
             pairsOf(sectionOf(doc, "histograms"))) {
            Hist &h = hists[name];
            std::int64_t count = 0, lo = 0, hi = 0;
            double mean = 0.0;
            findInt(value, "count", count);
            findDouble(value, "mean", mean);
            findInt(value, "min", lo);
            findInt(value, "max", hi);
            if (count <= 0)
                continue;
            h.count += count;
            h.mean_weight += mean * static_cast<double>(count);
            h.min = std::min(h.min, lo);
            h.max = std::max(h.max, hi);
        }
    }

    std::string out =
        "{\n  \"schema\": \"hdrd-metrics-cluster-v1\",\n";
    out += "  \"daemons\": " + std::to_string(docs.size()) + ",\n";

    out += "  \"counters\": {";
    const char *sep = "";
    for (const auto &[name, value] : counters) {
        out += sep;
        out += "\n    \"" + name + "\": " + std::to_string(value);
        sep = ",";
    }
    out += counters.empty() ? "" : "\n  ";
    out += "},\n";

    out += "  \"gauges\": {";
    sep = "";
    for (const auto &[name, value] : gauges) {
        out += sep;
        out += "\n    \"" + name + "\": " + std::to_string(value);
        sep = ",";
    }
    out += gauges.empty() ? "" : "\n  ";
    out += "},\n";

    out += "  \"histograms\": {";
    sep = "";
    for (const auto &[name, h] : hists) {
        out += sep;
        out += "\n    \"" + name + "\": {\"count\": "
            + std::to_string(h.count) + ", \"mean\": "
            + fmtDouble(h.count > 0
                            ? h.mean_weight
                                / static_cast<double>(h.count)
                            : 0.0)
            + ", \"min\": "
            + std::to_string(h.count > 0 ? h.min : 0)
            + ", \"max\": " + std::to_string(h.max) + "}";
        sep = ",";
    }
    out += hists.empty() ? "" : "\n  ";
    out += "}\n}\n";
    return out;
}

} // namespace hdrd::service
