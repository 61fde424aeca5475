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
 * stay valid across later inserts until the next reset() or clear().
 *
 * Two reset flavours exist. clear() frees everything. reset() is the
 * recycling path for engine reuse across jobs: it bumps a generation
 * counter and rewinds the arena's bump cursor, both O(1). Each
 * generation then takes arena pages 0, 1, 2, ... again in first-touch
 * order, re-value-initializing each as it is taken, and allocates
 * only past the end of what earlier generations left. A page records
 * the generation and page index it was last taken for, and a
 * directory or overflow entry counts only while its page still
 * serves that index in the current generation. The storage kept
 * across generations is therefore the largest generation's page
 * count, not the union of every index any generation touched, while
 * observable behaviour matches a cleared table.
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
        const Page *page = find(p);
        return page == nullptr ? nullptr : &page->slots[key & kPageMask];
    }

    /** Number of live (current-generation) pages. */
    std::size_t pages() const { return used_; }

    /**
     * Pages held in storage, live or awaiting recycling: the largest
     * page count any generation since the last clear() took.
     */
    std::size_t allocatedPages() const { return allocated_; }

    /** Pages taken again from the arena instead of allocated. */
    std::uint64_t recycledPages() const { return recycled_; }

    /** Overflow-map entries; each names a distinct kept page. */
    std::size_t overflowPages() const { return overflow_.size(); }

    /** Drop every page (full reset, storage freed). */
    void clear()
    {
        dir_.clear();
        overflow_.clear();
        arena_.clear();
        used_ = 0;
        allocated_ = 0;
        last_idx_ = kNoPage;
        last_page_ = nullptr;
    }

    /**
     * Logically empty the table in O(1), keeping page storage for
     * recycling. Afterwards pages() is 0 and peek() misses everywhere,
     * exactly as after clear(); the next generation takes the kept
     * pages again from the start of the arena, in first-touch order.
     */
    void reset()
    {
        ++gen_;
        used_ = 0;
        last_idx_ = kNoPage;
        last_page_ = nullptr;
    }

  private:
    struct Page
    {
        std::array<T, kPageSize> slots{};

        /** Generation this page was last taken in. */
        std::uint64_t gen = 0;

        /** Page index (key >> kPageBits) it was taken for. */
        std::uint64_t index = 0;
    };

    /** Pages per arena chunk; chunks are contiguous Page[] blocks. */
    static constexpr std::size_t kArenaChunkPages = 16;

    static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

    /** The current generation's page for index @p p, else null. */
    Page *find(std::uint64_t p) const
    {
        Page *page = nullptr;
        if (p < kMaxDirPages) {
            if (p < dir_.size())
                page = dir_[p];
        } else {
            const auto it = overflow_.find(p);
            if (it != overflow_.end())
                page = it->second;
        }
        if (page == nullptr || page->gen != gen_ || page->index != p)
            return nullptr;
        return page;
    }

    /**
     * Take the arena page at the bump cursor for index @p p: a page an
     * earlier generation left is wiped and unbound from its old
     * overflow key; past the end, the arena grows by one page.
     */
    Page *takePage(std::uint64_t p)
    {
        const std::size_t at = used_++;
        if (at == arena_.size() * kArenaChunkPages)
            arena_.push_back(std::make_unique<Page[]>(kArenaChunkPages));
        Page *page = &arena_[at / kArenaChunkPages][at % kArenaChunkPages];
        if (at < allocated_) {
            if (page->index >= kMaxDirPages) {
                const auto it = overflow_.find(page->index);
                if (it != overflow_.end() && it->second == page)
                    overflow_.erase(it);
            }
            page->slots.fill(T{});
            ++recycled_;
        } else {
            ++allocated_;
        }
        page->gen = gen_;
        page->index = p;
        return page;
    }

    Page *materialize(std::uint64_t p)
    {
        if (Page *page = find(p))
            return page;
        Page *page = takePage(p);
        if (p >= kMaxDirPages) {
            overflow_[p] = page;
            return page;
        }
        if (p >= dir_.size()) {
            std::size_t grown = dir_.empty() ? 64 : dir_.size() * 2;
            if (grown < p + 1)
                grown = static_cast<std::size_t>(p) + 1;
            if (grown > kMaxDirPages)
                grown = kMaxDirPages;
            dir_.resize(grown, nullptr);
        }
        dir_[p] = page;
        return page;
    }

    /**
     * Flat directory: page index -> the arena page last taken for it
     * (null until touched; stale once that page serves another index
     * or generation).
     */
    std::vector<Page *> dir_;

    /** Pages whose index exceeds the directory ceiling. */
    std::unordered_map<std::uint64_t, Page *> overflow_;

    /** Contiguous chunks all pages live in; dropped only by clear(). */
    std::vector<std::unique_ptr<Page[]>> arena_;

    /** Bump cursor: pages taken this generation, arena[0, used_). */
    std::size_t used_ = 0;

    /** Pages ever handed out since clear(): arena[0, allocated_). */
    std::size_t allocated_ = 0;

    std::uint64_t recycled_ = 0;

    /** Current generation; pages taken in older ones are stale. */
    std::uint64_t gen_ = 0;

    /** Last-page memo: streaming accesses skip the directory walk. */
    std::uint64_t last_idx_ = kNoPage;
    Page *last_page_ = nullptr;
};

} // namespace hdrd

#endif // HDRD_COMMON_RADIX_TABLE_HH
