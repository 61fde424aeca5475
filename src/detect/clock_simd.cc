#include "detect/clock_simd.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define HDRD_SIMD_X86 1
#include <immintrin.h>
#endif

namespace hdrd::detect::simd
{

namespace
{

// ------------------------------------------------------------------
// Scalar reference flavour. Also the tail loop for the wide flavours
// and the only flavour on non-x86 hosts.
// ------------------------------------------------------------------

void
joinMaxScalar(std::uint64_t *dst, const std::uint64_t *src,
              std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (src[i] > dst[i])
            dst[i] = src[i];
    }
}

bool
anyGreaterScalar(const std::uint64_t *a, const std::uint64_t *b,
                 std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] > b[i])
            return true;
    }
    return false;
}

std::size_t
firstGreaterExceptScalar(const std::uint64_t *a, const std::uint64_t *b,
                         std::size_t n, std::size_t except)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (i != except && a[i] > b[i])
            return i;
    }
    return kNotFound;
}

bool
anyNonzeroExceptScalar(const std::uint64_t *a, std::size_t n,
                       std::size_t except)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (i != except && a[i] != 0)
            return true;
    }
    return false;
}

constexpr KernelTable kScalarTable = {
    joinMaxScalar,
    anyGreaterScalar,
    firstGreaterExceptScalar,
    anyNonzeroExceptScalar,
    "scalar",
};

#ifdef HDRD_SIMD_X86

// ------------------------------------------------------------------
// SSE4.2: 2 lanes per step. pcmpgtq is a *signed* compare, so both
// sides are biased by 2^63 first (a >u b  <=>  a^bias >s b^bias).
// ------------------------------------------------------------------

__attribute__((target("sse4.2"))) void
joinMaxSse42(std::uint64_t *dst, const std::uint64_t *src,
             std::size_t n)
{
    const __m128i bias = _mm_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128i d = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(dst + i));
        const __m128i s = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + i));
        const __m128i gt = _mm_cmpgt_epi64(_mm_xor_si128(s, bias),
                                           _mm_xor_si128(d, bias));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i),
                         _mm_blendv_epi8(d, s, gt));
    }
    joinMaxScalar(dst + i, src + i, n - i);
}

__attribute__((target("sse4.2"))) bool
anyGreaterSse42(const std::uint64_t *a, const std::uint64_t *b,
                std::size_t n)
{
    const __m128i bias = _mm_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128i va = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + i));
        const __m128i vb = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(b + i));
        const __m128i gt = _mm_cmpgt_epi64(_mm_xor_si128(va, bias),
                                           _mm_xor_si128(vb, bias));
        if (_mm_movemask_epi8(gt) != 0)
            return true;
    }
    return anyGreaterScalar(a + i, b + i, n - i);
}

__attribute__((target("sse4.2"))) std::size_t
firstGreaterExceptSse42(const std::uint64_t *a, const std::uint64_t *b,
                        std::size_t n, std::size_t except)
{
    const __m128i bias = _mm_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128i va = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + i));
        const __m128i vb = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(b + i));
        const __m128i gt = _mm_cmpgt_epi64(_mm_xor_si128(va, bias),
                                           _mm_xor_si128(vb, bias));
        int mask = _mm_movemask_pd(_mm_castsi128_pd(gt));
        while (mask != 0) {
            const int lane = __builtin_ctz(
                static_cast<unsigned>(mask));
            const std::size_t idx = i + static_cast<std::size_t>(lane);
            if (idx != except)
                return idx;
            mask &= mask - 1;
        }
    }
    const std::size_t tail =
        firstGreaterExceptScalar(a + i, b + i, n - i,
                                 except >= i ? except - i : kNotFound);
    return tail == kNotFound ? kNotFound : i + tail;
}

__attribute__((target("sse4.2"))) bool
anyNonzeroExceptSse42(const std::uint64_t *a, std::size_t n,
                      std::size_t except)
{
    const __m128i zero = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128i va = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + i));
        int mask =
            _mm_movemask_pd(_mm_castsi128_pd(_mm_cmpeq_epi64(va, zero)))
            ^ 0x3;  // set bit = nonzero lane
        while (mask != 0) {
            const int lane = __builtin_ctz(
                static_cast<unsigned>(mask));
            if (i + static_cast<std::size_t>(lane) != except)
                return true;
            mask &= mask - 1;
        }
    }
    return anyNonzeroExceptScalar(a + i, n - i,
                                  except >= i ? except - i : kNotFound);
}

constexpr KernelTable kSse42Table = {
    joinMaxSse42,
    anyGreaterSse42,
    firstGreaterExceptSse42,
    anyNonzeroExceptSse42,
    "sse42",
};

// ------------------------------------------------------------------
// AVX2: 4 lanes per step, same sign-bias trick.
// ------------------------------------------------------------------

__attribute__((target("avx2"))) void
joinMaxAvx2(std::uint64_t *dst, const std::uint64_t *src,
            std::size_t n)
{
    const __m256i bias = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        const __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        const __m256i gt = _mm256_cmpgt_epi64(
            _mm256_xor_si256(s, bias), _mm256_xor_si256(d, bias));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_blendv_epi8(d, s, gt));
    }
    joinMaxScalar(dst + i, src + i, n - i);
}

__attribute__((target("avx2"))) bool
anyGreaterAvx2(const std::uint64_t *a, const std::uint64_t *b,
               std::size_t n)
{
    const __m256i bias = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        const __m256i gt = _mm256_cmpgt_epi64(
            _mm256_xor_si256(va, bias), _mm256_xor_si256(vb, bias));
        if (_mm256_movemask_epi8(gt) != 0)
            return true;
    }
    return anyGreaterScalar(a + i, b + i, n - i);
}

__attribute__((target("avx2"))) std::size_t
firstGreaterExceptAvx2(const std::uint64_t *a, const std::uint64_t *b,
                       std::size_t n, std::size_t except)
{
    const __m256i bias = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        const __m256i gt = _mm256_cmpgt_epi64(
            _mm256_xor_si256(va, bias), _mm256_xor_si256(vb, bias));
        int mask = _mm256_movemask_pd(_mm256_castsi256_pd(gt));
        while (mask != 0) {
            const int lane = __builtin_ctz(
                static_cast<unsigned>(mask));
            const std::size_t idx = i + static_cast<std::size_t>(lane);
            if (idx != except)
                return idx;
            mask &= mask - 1;
        }
    }
    const std::size_t tail =
        firstGreaterExceptScalar(a + i, b + i, n - i,
                                 except >= i ? except - i : kNotFound);
    return tail == kNotFound ? kNotFound : i + tail;
}

__attribute__((target("avx2"))) bool
anyNonzeroExceptAvx2(const std::uint64_t *a, std::size_t n,
                     std::size_t except)
{
    const __m256i zero = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        int mask = _mm256_movemask_pd(
                       _mm256_castsi256_pd(_mm256_cmpeq_epi64(va, zero)))
            ^ 0xF;
        while (mask != 0) {
            const int lane = __builtin_ctz(
                static_cast<unsigned>(mask));
            if (i + static_cast<std::size_t>(lane) != except)
                return true;
            mask &= mask - 1;
        }
    }
    return anyNonzeroExceptScalar(a + i, n - i,
                                  except >= i ? except - i : kNotFound);
}

constexpr KernelTable kAvx2Table = {
    joinMaxAvx2,
    anyGreaterAvx2,
    firstGreaterExceptAvx2,
    anyNonzeroExceptAvx2,
    "avx2",
};

#endif // HDRD_SIMD_X86

/** Highest flavour this host can execute. */
const KernelTable &
bestSupported()
{
#ifdef HDRD_SIMD_X86
    if (__builtin_cpu_supports("avx2"))
        return kAvx2Table;
    if (__builtin_cpu_supports("sse4.2"))
        return kSse42Table;
#endif
    return kScalarTable;
}

/**
 * Flavour named by @p name capped at host support; null when the
 * name is unknown or the host cannot run it.
 */
const KernelTable *
byName(const char *name)
{
    if (std::strcmp(name, "scalar") == 0
        || std::strcmp(name, "off") == 0) {
        return &kScalarTable;
    }
#ifdef HDRD_SIMD_X86
    if (std::strcmp(name, "sse42") == 0
        && __builtin_cpu_supports("sse4.2")) {
        return &kSse42Table;
    }
    if (std::strcmp(name, "avx2") == 0
        && __builtin_cpu_supports("avx2")) {
        return &kAvx2Table;
    }
#endif
    if (std::strcmp(name, "auto") == 0)
        return &bestSupported();
    return nullptr;
}

const KernelTable &
resolve()
{
    if (const char *env = std::getenv("HDRD_SIMD")) {
        if (const KernelTable *t = byName(env))
            return *t;
        // Unknown or unsupported request: fail safe to scalar so a
        // typo degrades performance, never correctness.
        return kScalarTable;
    }
    return bestSupported();
}

/**
 * The active table; swapped only by forceLevel (tests). Atomic
 * because the first use may come from several engine threads at
 * once; they all resolve the same table, so a lost race is benign.
 * On x86 the acquire load is a plain load.
 */
std::atomic<const KernelTable *> active{nullptr};

const KernelTable *
activeTable()
{
    const KernelTable *table = active.load(std::memory_order_acquire);
    if (table == nullptr) {
        table = &resolve();
        active.store(table, std::memory_order_release);
    }
    return table;
}

} // namespace

const KernelTable &
kernels()
{
    return *activeTable();
}

const char *
activeLevel()
{
    return activeTable()->level;
}

bool
forceLevel(const char *level)
{
    if (std::strcmp(level, "auto") == 0) {
        active.store(&resolve(), std::memory_order_release);
        return true;
    }
    const KernelTable *t = byName(level);
    if (t == nullptr)
        return false;
    active.store(t, std::memory_order_release);
    return true;
}

} // namespace hdrd::detect::simd
