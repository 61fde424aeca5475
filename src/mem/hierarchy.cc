#include "mem/hierarchy.hh"

#include <bit>

#include "common/logging.hh"

namespace hdrd::mem
{

const char *
hitWhereName(HitWhere where)
{
    switch (where) {
      case HitWhere::kL1:
        return "L1";
      case HitWhere::kL2:
        return "L2";
      case HitWhere::kL3:
        return "L3";
      case HitWhere::kRemoteCache:
        return "remote";
      case HitWhere::kMemory:
        return "memory";
    }
    return "?";
}

Hierarchy::Hierarchy(const HierarchyConfig &config)
    : config_(config),
      privates_(config.ncores, config.l1, config.l2),
      l3_(config.l3, "l3"),
      stats_("mem")
{
    if (config.l3.line_bytes != config.l1.line_bytes)
        fatal("L3 line size must match L1/L2 line size");
    if (config.ncores == 0)
        fatal("Hierarchy needs at least one core");
    if (config.ncores <= kMaxPresenceCores)
        presence_.resize(l3_.slots());
    c_accesses_ = stats_.counterCell("accesses");
    c_writes_ = stats_.counterCell("writes");
    c_l1_hits_ = stats_.counterCell("l1_hits");
    c_l2_hits_ = stats_.counterCell("l2_hits");
    c_l3_hits_ = stats_.counterCell("l3_hits");
    c_upgrades_ = stats_.counterCell("upgrades");
    c_l1_upgrades_ = stats_.counterCell("l1_upgrades");
    c_invalidations_ = stats_.counterCell("invalidations");
    c_hitm_transfers_ = stats_.counterCell("hitm_transfers");
    c_hitm_loads_ = stats_.counterCell("hitm_loads");
    c_mem_fetches_ = stats_.counterCell("mem_fetches");
    c_l2_evictions_ = stats_.counterCell("l2_evictions");
    c_private_writebacks_ = stats_.counterCell("private_writebacks");
    c_l3_evictions_ = stats_.counterCell("l3_evictions");
    c_back_invalidations_ = stats_.counterCell("back_invalidations");
    holders_scratch_.reserve(config.ncores);
}

Addr
Hierarchy::lineAddr(Addr addr) const
{
    return l3_.lineAddr(addr);
}

void
Hierarchy::upgradeForWrite(CoreId core, Addr line, CacheLine *l1_line,
                           CacheLine *l2_line, AccessResult &result)
{
    const LatencyModel &lat = config_.latency;
    const std::uint32_t l3_slot = l2_line->link;
    switch (l2_line->state) {
      case Mesi::kExclusive:
        // Silent E->M upgrade, no bus traffic.
        break;
      case Mesi::kShared:
        // S->M upgrade: invalidate every remote copy.
        snapshotRemote(l3_slot, line, core);
        for (CoreId h : holders_scratch_) {
            privates_.invalidate(h, line);
            setPresence(l3_slot, h, Mesi::kInvalid);
            ++result.invalidations;
        }
        result.upgrade = true;
        result.latency += lat.upgrade;
        *c_upgrades_ += 1;
        if (l1_line != nullptr)
            *c_l1_upgrades_ += 1;
        *c_invalidations_ += result.invalidations;
        break;
      case Mesi::kModified:
      case Mesi::kInvalid:
        panic("unreachable: hit-path upgrade from state ",
              mesiName(l2_line->state));
    }
    l2_line->state = Mesi::kModified;
    if (l1_line != nullptr)
        l1_line->state = Mesi::kModified;
    setPresence(l3_slot, core, Mesi::kModified);
}

Mesi
Hierarchy::privateState(CoreId core, Addr addr) const
{
    return privates_.state(core, lineAddr(addr));
}

bool
Hierarchy::inL3(Addr addr) const
{
    return l3_.probe(lineAddr(addr)) != nullptr;
}

std::optional<CoreId>
Hierarchy::snapshotRemote(std::uint32_t l3_slot, Addr line,
                          CoreId except)
{
    if (presence_.empty())
        return privates_.snapshotRemote(line, except, holders_scratch_);
    // Set bits ascend by core id, matching the sweep's holder order
    // and its first-Modified owner.
    std::optional<CoreId> owner;
    holders_scratch_.clear();
    const std::uint64_t word = presence_[l3_slot];
    for (std::uint64_t rest = word; rest != 0;) {
        const auto c = static_cast<CoreId>(
            static_cast<std::uint32_t>(std::countr_zero(rest)) >> 1);
        const auto st = static_cast<Mesi>((word >> (c * 2)) & 3);
        if (!owner && st == Mesi::kModified)
            owner = c;
        if (c != except)
            holders_scratch_.push_back(c);
        rest &= ~(std::uint64_t{3} << (c * 2));
    }
    return owner;
}

AccessResult
Hierarchy::serviceMiss(CoreId core, Addr line, bool write)
{
    const LatencyModel &lat = config_.latency;
    AccessResult result;
    Mesi new_state;

    // The tail insert scans the requester's L2 set: start that host
    // load now so it overlaps the L3 probe.
    privates_.l2(core).prefetchSet(line);

    // Inclusion: a line no L3 way holds is in no private cache, so
    // one L3 probe answers both "who holds it" (its presence bits)
    // and "is it on chip".
    CacheLine *l3_line = l3_.probe(line);
    std::optional<CoreId> owner;
    holders_scratch_.clear();
    if (l3_line != nullptr)
        owner = snapshotRemote(l3_.slotOf(l3_line), line, core);
    if (owner) {
        // The line is Modified in another core's private caches:
        // cache-to-cache transfer, the HITM event.
        hdrdAssert(*owner != core, "owner cannot be the requester here");
        const std::uint32_t l3_slot = l3_.slotOf(l3_line);
        result.where = HitWhere::kRemoteCache;
        result.hitm = true;
        result.hitm_load = !write;
        result.latency = lat.hitm_transfer;
        *c_hitm_transfers_ += 1;
        if (!write)
            *c_hitm_loads_ += 1;
        if (write) {
            privates_.invalidate(*owner, line);
            setPresence(l3_slot, *owner, Mesi::kInvalid);
            result.invalidations = 1;
            *c_invalidations_ += 1;
            new_state = Mesi::kModified;
        } else {
            // M->S at the owner; dirty data written back to L3.
            privates_.setState(*owner, line, Mesi::kShared);
            setPresence(l3_slot, *owner, Mesi::kShared);
            new_state = Mesi::kShared;
        }
        l3_.touchLine(l3_line);
    } else if (!holders_scratch_.empty()) {
        // Clean remote copies; data serviced by the inclusive L3.
        const std::uint32_t l3_slot = l3_.slotOf(l3_line);
        result.where = HitWhere::kL3;
        result.latency = lat.l3_hit;
        *c_l3_hits_ += 1;
        if (write) {
            for (CoreId h : holders_scratch_) {
                privates_.invalidate(h, line);
                setPresence(l3_slot, h, Mesi::kInvalid);
                ++result.invalidations;
            }
            *c_invalidations_ += result.invalidations;
            new_state = Mesi::kModified;
        } else {
            for (CoreId h : holders_scratch_) {
                if (privates_.state(h, line) == Mesi::kExclusive) {
                    privates_.setState(h, line, Mesi::kShared);
                    setPresence(l3_slot, h, Mesi::kShared);
                }
            }
            new_state = Mesi::kShared;
        }
        l3_.touchLine(l3_line);
    } else if (l3_line != nullptr) {
        // No private copy anywhere; L3 has it.
        result.where = HitWhere::kL3;
        result.latency = lat.l3_hit;
        *c_l3_hits_ += 1;
        l3_.touchLine(l3_line);
        new_state = write ? Mesi::kModified : Mesi::kExclusive;
    } else {
        // Fetch from memory, fill L3 first (inclusive).
        result.where = HitWhere::kMemory;
        result.latency = lat.memory;
        *c_mem_fetches_ += 1;
        l3_line = insertL3(line);
        new_state = write ? Mesi::kModified : Mesi::kExclusive;
    }

    const std::uint32_t l3_slot = l3_.slotOf(l3_line);
    const auto ins = privates_.insert(core, line, new_state, l3_slot);
    setPresence(l3_slot, core, new_state);
    if (ins.l2_victim) {
        setPresence(ins.l2_victim_l3_slot, core, Mesi::kInvalid);
        *c_l2_evictions_ += 1;
    }
    if (ins.writeback) {
        // A Modified line left the private hierarchy: any later
        // consumer will be serviced by L3 with no HITM — the paper's
        // eviction-induced sharing-indicator miss.
        result.private_writeback = true;
        *c_private_writebacks_ += 1;
    }
    return result;
}

CacheLine *
Hierarchy::insertL3(Addr line)
{
    std::optional<Eviction> evict;
    CacheLine *l3_line = l3_.insertLine(line, Mesi::kExclusive, &evict);
    const std::uint32_t l3_slot = l3_.slotOf(l3_line);
    if (evict) {
        *c_l3_evictions_ += 1;
        // Inclusive L3: the victim must leave every private cache
        // holding it, which the slot's presence bits (still the
        // victim's) name. No core is excepted.
        snapshotRemote(l3_slot, evict->line_addr, config_.ncores);
        for (CoreId c : holders_scratch_) {
            if (privates_.dropLine(c, evict->line_addr))
                *c_back_invalidations_ += 1;
        }
    }
    if (!presence_.empty())
        presence_[l3_slot] = 0;
    return l3_line;
}

Log2Histogram
Hierarchy::latencyHistogram() const
{
    const LatencyModel &lat = config_.latency;
    const std::uint64_t l2_upgrades = *c_upgrades_ - *c_l1_upgrades_;
    Log2Histogram hist;
    hist.add(lat.l1_hit, *c_l1_hits_ - *c_l1_upgrades_);
    hist.add(lat.l1_hit + lat.upgrade, *c_l1_upgrades_);
    hist.add(lat.l2_hit, *c_l2_hits_ - l2_upgrades);
    hist.add(lat.l2_hit + lat.upgrade, l2_upgrades);
    hist.add(lat.l3_hit, *c_l3_hits_);
    hist.add(lat.hitm_transfer, *c_hitm_transfers_);
    hist.add(lat.memory, *c_mem_fetches_);
    return hist;
}

void
Hierarchy::checkInvariants() const
{
    for (CoreId c = 0; c < config_.ncores; ++c) {
        for (const auto &[line, state] : privates_.l2(c)
                 .residentEntries()) {
            // Inclusion in L3, and the L2 line's link names its way.
            const CacheLine *l3_line = l3_.probe(line);
            hdrdAssert(l3_line != nullptr,
                       "private line missing from inclusive L3");
            hdrdAssert(privates_.l2(c).probe(line)->link
                           == l3_.slotOf(l3_line),
                       "L2 -> L3 slot link out of date");
            // Single-writer: M/E lines have no other valid copy.
            if (state == Mesi::kModified || state == Mesi::kExclusive) {
                for (CoreId o = 0; o < config_.ncores; ++o) {
                    if (o == c)
                        continue;
                    hdrdAssert(privates_.state(o, line)
                                   == Mesi::kInvalid,
                               "M/E line also valid on another core");
                }
            }
        }
        // L1 subset of L2 with matching state.
        for (const auto &[line, state] : privates_.l1(c)
                 .residentEntries()) {
            hdrdAssert(privates_.state(c, line) == state,
                       "L1/L2 state mismatch or inclusion violation");
        }
    }
    // Every L3 way's presence bits equal each core's L2 state, so a
    // core holding a line is named and a named core holds it.
    if (presence_.empty())
        return;
    for (const auto &[line, l3_state] : l3_.residentEntries()) {
        const std::uint64_t word = presence_[l3_.slotOf(l3_.probe(line))];
        for (CoreId c = 0; c < config_.ncores; ++c) {
            hdrdAssert(static_cast<Mesi>((word >> (c * 2)) & 3)
                           == privates_.state(c, line),
                       "L3 presence bits out of sync with L2");
        }
        hdrdAssert((word >> (config_.ncores * 2 - 1) >> 1) == 0,
                   "L3 presence bits name a core that does not exist");
    }
}

void
Hierarchy::reset()
{
    privates_.flushAll();
    l3_.flush();
    stats_.reset();
}

} // namespace hdrd::mem
