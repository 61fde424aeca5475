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
 * Pages are borrowed from a thread-safe PagePool
 * (common/page_pool.hh), one page per first-touched index. A table
 * records the page indices it took, and reset() hands exactly those
 * pages back and unbinds exactly their directory and overflow
 * entries, in O(pages taken). A lookup therefore never reaches a page
 * the table gave back, which another borrower of the same pool may
 * be writing, and find() is one directory load. Pages never move
 * while taken, so references returned by get() stay valid across
 * later inserts until the next reset() or clear().
 *
 * A table given no pool makes a private one on first touch and frees
 * it with the table (or at clear()): that pool holds exactly the
 * largest page count any generation took, as a bump arena would.
 * Tables that share one pool (every engine of a daemon) hold together
 * only the pages borrowed at once.
 */

#ifndef HDRD_COMMON_RADIX_TABLE_HH
#define HDRD_COMMON_RADIX_TABLE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/page_pool.hh"

namespace hdrd
{

/**
 * One radix-table page: the unit a PagePool lends. Line-aligned, so
 * two tables sharing a pool never write one host cache line.
 */
template <typename T, std::uint64_t kSlots>
struct alignas(64) RadixPage
{
    std::array<T, kSlots> slots{};
};

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

    using Page = RadixPage<T, kPageSize>;

    /** Where pages come from; shareable across tables and threads. */
    using Pool = PagePool<Page>;

    /**
     * @param pool pages to borrow; null makes a private pool on first
     *        touch, freed with the table or by clear()
     */
    explicit RadixTable(Pool *pool = nullptr) : pool_(pool) {}

    /** Hands every taken page back to a shared pool. */
    ~RadixTable()
    {
        if (!owned_)
            reset();
    }

    RadixTable(const RadixTable &) = delete;
    RadixTable &operator=(const RadixTable &) = delete;

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

    /** Pages taken this generation. */
    std::size_t pages() const { return taken_.size(); }

    /**
     * Pages the pool holds, taken or free. A private pool holds the
     * largest page count any generation since the last clear() took.
     */
    std::size_t allocatedPages() const
    {
        return pool_ == nullptr ? 0 : pool_->pages();
    }

    /** Pages taken again from the pool instead of newly carved. */
    std::uint64_t recycledPages() const { return recycled_; }

    /** Overflow-map entries; each names a page taken this generation. */
    std::size_t overflowPages() const { return overflow_.size(); }

    /** Drop every page; a private pool's storage is freed. */
    void clear()
    {
        reset();
        dir_.clear();
        if (owned_) {
            owned_.reset();
            pool_ = nullptr;
        }
    }

    /**
     * Logically empty the table, handing every page it took back to
     * the pool and unbinding exactly their entries: O(pages taken).
     * Afterwards pages() is 0 and peek() misses everywhere, exactly as
     * after clear().
     */
    void reset()
    {
        if (!taken_.empty()) {
            // Unbind outside the pool's lock; each entry then names
            // its page, and the lock covers only the hand-back.
            for (TakenPage &t : taken_)
                t.page = unbind(t.index);
            pool_->give(taken_.size(),
                        [this](std::size_t i) { return taken_[i].page; });
            taken_.clear();
            if (!overflow_.empty())
                overflow_.clear();
        }
        last_idx_ = kNoPage;
        last_page_ = nullptr;
    }

  private:
    static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

    /** A page index taken this generation; its page once unbound. */
    union TakenPage
    {
        std::uint64_t index;
        Page *page;
    };

    /** The page bound to index @p p, else null. */
    Page *find(std::uint64_t p) const
    {
        if (p < kMaxDirPages)
            return p < dir_.size() ? dir_[p] : nullptr;
        const auto it = overflow_.find(p);
        return it == overflow_.end() ? nullptr : it->second;
    }

    /**
     * Clear index @p p's directory entry and return its page; an
     * overflow entry is read here and the map cleared after.
     */
    Page *unbind(std::uint64_t p)
    {
        if (p < kMaxDirPages)
            return std::exchange(dir_[p], nullptr);
        return overflow_.find(p)->second;
    }

    /** Borrow a page for index @p p, wiped if another use left it. */
    Page *takePage(std::uint64_t p)
    {
        if (pool_ == nullptr) {
            owned_ = std::make_unique<Pool>();
            pool_ = owned_.get();
        }
        const typename Pool::Taken taken = pool_->take();
        if (taken.recycled) {
            taken.page->slots.fill(T{});
            ++recycled_;
        }
        taken_.push_back({p});
        return taken.page;
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

    /** Flat directory: page index -> its taken page (null if none). */
    std::vector<Page *> dir_;

    /** Pages whose index exceeds the directory ceiling. */
    std::unordered_map<std::uint64_t, Page *> overflow_;

    /** Page indices taken this generation, in first-touch order. */
    std::vector<TakenPage> taken_;

    /** The pool pages come from: a shared one, or owned_. */
    Pool *pool_;

    /** The private pool, when no shared one was given. */
    std::unique_ptr<Pool> owned_;

    std::uint64_t recycled_ = 0;

    /** Last-page memo: streaming accesses skip the directory walk. */
    std::uint64_t last_idx_ = kNoPage;
    Page *last_page_ = nullptr;
};

} // namespace hdrd

#endif // HDRD_COMMON_RADIX_TABLE_HH
