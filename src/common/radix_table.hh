/**
 * @file
 * Two-level radix page table: a flat, lazily grown directory of
 * fixed-size pages, indexed by a single shift/mask on the key.
 *
 * This is the hot-path replacement for unordered_map keyed by dense
 * 64-bit ids (shadow granules, ground-truth granules). A lookup is
 * one shift, one bounds check, and two dereferences — no hashing, no
 * bucket chains — and the most recently touched page is memoized so
 * the streaming case (consecutive granules on one page) resolves in
 * a compare and an index.
 *
 * Keys far beyond the directory ceiling (sparse, huge addresses)
 * spill to a small overflow hash map so the table stays correct for
 * the full 64-bit key space without the directory ballooning.
 *
 * Pages are bump-allocated from contiguous arena chunks rather than
 * individually heap-allocated: pages touched close in time land close
 * in memory, so a working set of N pages spans ~N/16 allocator
 * objects and far fewer TLB entries than N scattered mallocs. Pages
 * never move or free until clear(), so references returned by get()
 * stay valid across later inserts.
 *
 * Two reset flavours exist. clear() frees everything. reset() is the
 * recycling path for engine reuse across jobs: it bumps a generation
 * counter so every page becomes logically absent in O(1), and a stale
 * page is revived (slots re-value-initialized, no allocation) only
 * when next touched. Long-lived engines thus stop paying a full
 * free/malloc/zero sweep between runs while observable behaviour
 * matches a cleared table.
 */

#ifndef HDRD_COMMON_RADIX_TABLE_HH
#define HDRD_COMMON_RADIX_TABLE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace hdrd
{

/**
 * @tparam T          value type; value-initialized on first touch.
 * @tparam kPageBits  log2 of entries per page.
 * @tparam kMaxDirBits log2 of the directory ceiling, in pages; keys
 *         whose page index exceeds it live in the overflow map.
 */
template <typename T, std::uint32_t kPageBits = 9,
          std::uint32_t kMaxDirBits = 20>
class RadixTable
{
  public:
    static constexpr std::uint64_t kPageSize = std::uint64_t{1}
        << kPageBits;
    static constexpr std::uint64_t kPageMask = kPageSize - 1;
    static constexpr std::uint64_t kMaxDirPages = std::uint64_t{1}
        << kMaxDirBits;

    /** Slot for @p key, materializing its page on first touch. */
    T &get(std::uint64_t key)
    {
        const std::uint64_t p = key >> kPageBits;
        if (p == last_idx_)
            return last_page_->slots[key & kPageMask];
        Page *page = materialize(p);
        last_idx_ = p;
        last_page_ = page;
        return page->slots[key & kPageMask];
    }

    /** Slot for @p key if its page exists, else null. Never allocates. */
    const T *peek(std::uint64_t key) const
    {
        const std::uint64_t p = key >> kPageBits;
        if (p == last_idx_)
            return &last_page_->slots[key & kPageMask];
        const Page *page = nullptr;
        if (p < kMaxDirPages) {
            if (p < dir_.size())
                page = dir_[p];
        } else {
            const auto it = overflow_.find(p);
            if (it != overflow_.end())
                page = it->second;
        }
        if (page == nullptr || page->gen != gen_)
            return nullptr;
        return &page->slots[key & kPageMask];
    }

    /** Number of live (current-generation) pages. */
    std::size_t pages() const { return npages_; }

    /** Pages held in storage, live or awaiting recycling. */
    std::size_t allocatedPages() const { return allocated_; }

    /** Stale pages revived in place instead of reallocated. */
    std::uint64_t recycledPages() const { return recycled_; }

    /** Pages held in the overflow map, live or awaiting recycling. */
    std::size_t overflowPages() const { return overflow_.size(); }

    /** Drop every page (full reset, storage freed). */
    void clear()
    {
        dir_.clear();
        overflow_.clear();
        arena_.clear();
        arena_used_ = kArenaChunkPages;
        npages_ = 0;
        allocated_ = 0;
        last_idx_ = kNoPage;
        last_page_ = nullptr;
    }

    /**
     * Logically empty the table in O(1), keeping page storage for
     * recycling. Afterwards pages() is 0 and peek() misses everywhere,
     * exactly as after clear(); the next get() of an old key revives
     * its page by re-initializing the slots in place.
     */
    void reset()
    {
        ++gen_;
        npages_ = 0;
        last_idx_ = kNoPage;
        last_page_ = nullptr;
    }

  private:
    struct Page
    {
        std::array<T, kPageSize> slots{};
        std::uint64_t gen = 0;
    };

    /** Pages per arena chunk; chunks are contiguous Page[] blocks. */
    static constexpr std::size_t kArenaChunkPages = 16;

    static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

    Page *revive(Page *page)
    {
        if (page->gen != gen_) {
            if (page->gen != kNeverUsed) {
                page->slots.fill(T{});
                ++recycled_;
            }
            page->gen = gen_;
            ++npages_;
        }
        return page;
    }

    /** Bump-allocate the next page from the arena. */
    Page *newPage()
    {
        if (arena_used_ == kArenaChunkPages) {
            arena_.push_back(
                std::make_unique<Page[]>(kArenaChunkPages));
            arena_used_ = 0;
        }
        Page *page = &arena_.back()[arena_used_++];
        page->gen = kNeverUsed;
        ++allocated_;
        return page;
    }

    Page *materialize(std::uint64_t p)
    {
        if (p < kMaxDirPages) {
            if (p >= dir_.size()) {
                std::size_t grown = dir_.empty() ? 64 : dir_.size() * 2;
                if (grown < p + 1)
                    grown = static_cast<std::size_t>(p) + 1;
                if (grown > kMaxDirPages)
                    grown = kMaxDirPages;
                dir_.resize(grown, nullptr);
            }
            Page *&slot = dir_[p];
            if (slot == nullptr)
                slot = newPage();
            return revive(slot);
        }
        Page *&slot = overflow_[p];
        if (slot == nullptr)
            slot = newPage();
        return revive(slot);
    }

    /** Generation tag for a freshly allocated, not-yet-live page. */
    static constexpr std::uint64_t kNeverUsed = ~std::uint64_t{0};

    /** Flat directory: page index -> arena page (null until touched). */
    std::vector<Page *> dir_;

    /** Pages whose index exceeds the directory ceiling. */
    std::unordered_map<std::uint64_t, Page *> overflow_;

    /** Contiguous chunks all pages live in; dropped only by clear(). */
    std::vector<std::unique_ptr<Page[]>> arena_;
    std::size_t arena_used_ = kArenaChunkPages;

    std::size_t npages_ = 0;
    std::size_t allocated_ = 0;
    std::uint64_t recycled_ = 0;

    /** Current generation; pages from older generations are stale. */
    std::uint64_t gen_ = 0;

    /** Last-page memo: streaming accesses skip the directory walk. */
    std::uint64_t last_idx_ = kNoPage;
    Page *last_page_ = nullptr;
};

} // namespace hdrd

#endif // HDRD_COMMON_RADIX_TABLE_HH
