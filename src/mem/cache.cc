#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace hdrd::mem
{

const char *
mesiName(Mesi state)
{
    switch (state) {
      case Mesi::kInvalid:
        return "I";
      case Mesi::kShared:
        return "S";
      case Mesi::kExclusive:
        return "E";
      case Mesi::kModified:
        return "M";
    }
    return "?";
}

std::uint64_t
CacheGeometry::sets() const
{
    return size_bytes / (static_cast<std::uint64_t>(assoc) * line_bytes);
}

void
CacheGeometry::validate(const char *what) const
{
    if (line_bytes == 0 || !std::has_single_bit(line_bytes))
        fatal(what, ": line_bytes must be a power of two, got ",
              line_bytes);
    if (assoc == 0)
        fatal(what, ": assoc must be positive");
    const std::uint64_t way_bytes =
        static_cast<std::uint64_t>(assoc) * line_bytes;
    if (size_bytes < way_bytes || size_bytes % way_bytes != 0)
        fatal(what, ": size_bytes (", size_bytes,
              ") must be a positive multiple of assoc*line_bytes (",
              way_bytes, ")");
    if (!std::has_single_bit(sets()))
        fatal(what, ": set count must be a power of two, got ", sets());
}

Cache::Cache(const CacheGeometry &geom, const char *name) : geom_(geom)
{
    geom_.validate(name);
    sets_ = geom_.sets();
    line_shift_ =
        static_cast<std::uint32_t>(std::countr_zero(geom_.line_bytes));
    ways_.resize(sets_ * geom_.assoc);
    tags_.assign(ways_.size(), kInvalidTag);
    set_gen_.assign(sets_, gen_);
}

std::vector<std::pair<Addr, Mesi>>
Cache::residentEntries() const
{
    std::vector<std::pair<Addr, Mesi>> entries;
    for (std::uint64_t set = 0; set < sets_; ++set) {
        if (!live(set))
            continue;
        const std::size_t base =
            static_cast<std::size_t>(set) * geom_.assoc;
        for (std::size_t i = base; i < base + geom_.assoc; ++i) {
            if (tags_[i] != kInvalidTag)
                entries.emplace_back(tags_[i] << line_shift_,
                                     ways_[i].state);
        }
    }
    return entries;
}

std::uint64_t
Cache::residentLines() const
{
    std::uint64_t n = 0;
    for (std::uint64_t set = 0; set < sets_; ++set) {
        if (!live(set))
            continue;
        const std::size_t base =
            static_cast<std::size_t>(set) * geom_.assoc;
        for (std::size_t i = base; i < base + geom_.assoc; ++i)
            n += tags_[i] != kInvalidTag;
    }
    return n;
}

void
Cache::flush()
{
    ++gen_;
    lru_tick_ = 0;
}

void
Cache::skipLruTicks(std::uint32_t n)
{
    lru_tick_ = n > kMaxTick - lru_tick_ ? kMaxTick : lru_tick_ + n;
}

void
Cache::renormaliseLru()
{
    std::vector<std::uint32_t> order(geom_.assoc);
    for (std::uint64_t set = 0; set < sets_; ++set) {
        if (!live(set))
            continue;
        const std::size_t base =
            static_cast<std::size_t>(set) * geom_.assoc;
        std::uint32_t n = 0;
        for (std::uint32_t w = 0; w < geom_.assoc; ++w) {
            if (tags_[base + w] != kInvalidTag)
                order[n++] = w;
        }
        std::sort(order.begin(), order.begin() + n,
                  [&](std::uint32_t a, std::uint32_t b) {
                      return ways_[base + a].lru < ways_[base + b].lru;
                  });
        for (std::uint32_t rank = 0; rank < n; ++rank)
            ways_[base + order[rank]].lru = rank + 1;
    }
    lru_tick_ = geom_.assoc;
}

} // namespace hdrd::mem
