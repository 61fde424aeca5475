/**
 * @file
 * A thread-safe pool of fixed-size pages that several owners borrow
 * from and hand back.
 *
 * Pages are carved from contiguous blocks of kBlockPages pages, so
 * pages carved close in time land close in memory, and a page carved
 * once is never freed until the pool is destroyed. take() serves the
 * most recently returned page first and carves a new one only when
 * none is free, so the pool's page count is exactly the most pages
 * its borrowers held at once. give() returns a batch under one lock
 * in reverse, so a borrower that takes again re-takes its previous
 * pages in the order it took them.
 *
 * Free pages are linked through their own first bytes, so the pool
 * needs no memory beyond its blocks. A recycled page therefore holds
 * its last borrower's bytes except the first pointer's worth, and the
 * taker re-initializes it. The lock orders a borrower's last write to
 * a page before the next borrower's first.
 */

#ifndef HDRD_COMMON_PAGE_POOL_HH
#define HDRD_COMMON_PAGE_POOL_HH

#include <cstddef>
#include <cstring>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

namespace hdrd
{

/**
 * @tparam Page        page type; value-initialized when carved.
 * @tparam kBlockPages pages per contiguous allocation.
 */
template <typename Page, std::size_t kBlockPages = 16>
class PagePool
{
    static_assert(kBlockPages > 0, "a block holds at least one page");
    static_assert(std::is_trivially_copyable_v<Page>
                      && sizeof(Page) >= sizeof(Page *),
                  "a free page holds the free-list link in its bytes");

  public:
    /** A page handed out by take(). */
    struct Taken
    {
        Page *page = nullptr;

        /** An earlier borrower used it: its bytes are stale. */
        bool recycled = false;
    };

    PagePool() = default;
    PagePool(const PagePool &) = delete;
    PagePool &operator=(const PagePool &) = delete;

    /** Borrow one page: a returned one if any, else a new one. */
    Taken take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++borrowed_;
        if (Page *const page = free_) {
            std::memcpy(&free_, static_cast<const void *>(page),
                        sizeof(free_));
            return {page, true};
        }
        const std::size_t at = carved_++ % kBlockPages;
        if (at == 0)
            blocks_.push_back(std::make_unique<Page[]>(kBlockPages));
        return {&blocks_.back()[at], false};
    }

    /**
     * Hand back @p n borrowed pages under one lock; @p page_at(i)
     * names the i-th. The borrower must not touch them afterwards.
     */
    template <typename PageAt>
    void give(std::size_t n, PageAt &&page_at)
    {
        if (n == 0)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = n; i-- > 0;) {
            Page *const page = page_at(i);
            std::memcpy(static_cast<void *>(page), &free_, sizeof(free_));
            free_ = page;
        }
        borrowed_ -= n;
    }

    void give(Page *page)
    {
        give(1, [page](std::size_t) { return page; });
    }

    /** Pages carved so far: the most ever borrowed at once. */
    std::size_t pages() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return carved_;
    }

    /** Pages out on loan now. */
    std::size_t borrowed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return borrowed_;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Page[]>> blocks_;

    /** The most recently returned page; each links to the next. */
    Page *free_ = nullptr;

    std::size_t carved_ = 0;
    std::size_t borrowed_ = 0;
};

} // namespace hdrd

#endif // HDRD_COMMON_PAGE_POOL_HH
