#include "trace/trace_io.hh"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

#include "common/logging.hh"

namespace hdrd::trace
{

TraceWriter::TraceWriter(const std::string &path,
                         const std::string &name,
                         std::uint32_t nthreads,
                         const std::string &fault_spec)
    : out_(path, std::ios::binary | std::ios::trunc)
{
    if (!out_)
        return;
    header_.nthreads = nthreads;
    const std::size_t n =
        std::min(name.size(), header_.name.size() - 1);
    std::memcpy(header_.name.data(), name.data(), n);
    const std::size_t f = std::min(fault_spec.size(),
                                   header_.fault_spec.size() - 1);
    std::memcpy(header_.fault_spec.data(), fault_spec.data(), f);
    // Reserve header space; patched with the count in finalize().
    out_.write(reinterpret_cast<const char *>(&header_),
               sizeof(header_));
    ok_ = static_cast<bool>(out_);
}

TraceWriter::~TraceWriter()
{
    if (ok_ && !finalized_)
        finalize();
}

void
TraceWriter::record(ThreadId tid, const runtime::Op &op)
{
    if (!ok_ || finalized_)
        return;
    const TraceRecord record = TraceRecord::fromOp(tid, op);
    out_.write(reinterpret_cast<const char *>(&record),
               sizeof(record));
    if (!out_) {
        // Disk full or similar: poison the writer so finalize()
        // reports the failure instead of leaving a silently short
        // trace behind.
        ok_ = false;
        return;
    }
    ++count_;
}

bool
TraceWriter::finalize()
{
    if (!ok_ || finalized_)
        return false;
    finalized_ = true;
    header_.record_count = count_;
    out_.seekp(0);
    out_.write(reinterpret_cast<const char *>(&header_),
               sizeof(header_));
    out_.close();
    return static_cast<bool>(out_);
}

const std::vector<runtime::Op> &
TraceData::threadOps(ThreadId tid) const
{
    hdrdAssert(tid < per_thread_.size(),
               "trace has no thread ", tid);
    return per_thread_[tid];
}

TraceReader::TraceReader(ByteSource &source,
                         std::uint64_t total_bytes, bool resumable)
    : source_(source), total_bytes_(total_bytes),
      streaming_(resumable || total_bytes == kUnknownSize)
{
}

bool
TraceReader::fillStash(std::size_t n)
{
    hdrdAssert(n <= stash_.size(), "stash overflow");
    while (stash_len_ < n) {
        const std::size_t got = source_.read(
            stash_.data() + stash_len_, n - stash_len_);
        if (got == 0)
            return false;
        stash_len_ += got;
    }
    return true;
}

bool
TraceReader::readHeader()
{
    if (header_ok_ || !error_.empty())
        return header_ok_;
    const bool sized = total_bytes_ != kUnknownSize;
    if (sized && total_bytes_ < sizeof(TraceHeaderV1)) {
        error_ = "truncated header ("
            + std::to_string(total_bytes_) + " bytes, need "
            + std::to_string(sizeof(TraceHeaderV1)) + ")";
        return false;
    }

    // Both header versions share the v1 prefix; the magic decides
    // whether the v2 metadata tail follows. The stash carries a
    // partial header across streaming stalls, so a chunk boundary
    // anywhere inside it — including the first byte — resumes.
    if (!fillStash(sizeof(TraceHeaderV1))) {
        if (streaming_ && !ended_)
            return false; // stalled: retry after more bytes arrive
        error_ = "truncated header";
        return false;
    }
    TraceHeader header;
    std::memcpy(reinterpret_cast<char *>(&header), stash_.data(),
                sizeof(TraceHeaderV1));
    if (header.magic == kMagic) {
        if (sized && total_bytes_ < sizeof(TraceHeader)) {
            error_ = "truncated v2 header ("
                + std::to_string(total_bytes_) + " bytes, need "
                + std::to_string(sizeof(TraceHeader)) + ")";
            return false;
        }
        if (!fillStash(sizeof(TraceHeader))) {
            if (streaming_ && !ended_)
                return false;
            error_ = "truncated v2 header";
            return false;
        }
        std::memcpy(header.fault_spec.data(),
                    stash_.data() + sizeof(TraceHeaderV1),
                    header.fault_spec.size());
    } else if (header.magic != kMagicV1) {
        error_ = "bad magic (not an hdrd trace?)";
        return false;
    }
    const std::uint64_t header_size = header.magic == kMagic
        ? sizeof(TraceHeader) : sizeof(TraceHeaderV1);
    stash_len_ = 0;
    if (header.nthreads == 0 || header.nthreads > 4096) {
        error_ = "implausible thread count "
            + std::to_string(header.nthreads);
        return false;
    }

    // The size-consistency checks need the total up front; without
    // it a short stream surfaces as truncation at the missing record
    // instead, and trailing bytes are the feeding layer's to reject.
    if (sized) {
        const std::uint64_t payload = total_bytes_ - header_size;
        const std::uint64_t expected =
            header.record_count * sizeof(TraceRecord);
        if (header.record_count > payload / sizeof(TraceRecord)) {
            error_ = "truncated: header claims "
                + std::to_string(header.record_count)
                + " records but the file only holds "
                + std::to_string(payload / sizeof(TraceRecord));
            return false;
        }
        if (payload != expected) {
            error_ = std::to_string(payload - expected)
                + " bytes of trailing garbage after "
                + std::to_string(header.record_count) + " records";
            return false;
        }
    }

    name_.assign(header.name.data(),
                 strnlen(header.name.data(), header.name.size()));
    if (header.magic == kMagic) {
        fault_spec_.assign(
            header.fault_spec.data(),
            strnlen(header.fault_spec.data(),
                    header.fault_spec.size()));
        if (fault_spec_.empty())
            fault_spec_ = "none";
    }
    nthreads_ = header.nthreads;
    record_count_ = header.record_count;
    header_ok_ = true;
    return true;
}

std::size_t
TraceReader::next(TraceRecord *out, std::size_t max)
{
    if (!header_ok_ || !error_.empty() || consumed_ == record_count_)
        return 0;
    const std::uint64_t left = record_count_ - consumed_;
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(max, left));
    char *const bytes = reinterpret_cast<char *>(out);
    std::size_t produced = 0;
    while (produced < want) {
        // Land whole records at out[produced, landed), then validate
        // them where they lie.
        std::size_t landed = produced;
        if (stash_len_ > 0) {
            // A record split across reads: complete it first.
            if (!fillStash(sizeof(TraceRecord)))
                return sourceDry(produced);
            std::memcpy(&out[produced], stash_.data(),
                        sizeof(TraceRecord));
            stash_len_ = 0;
            landed = produced + 1;
        } else {
            const std::size_t got = source_.read(
                bytes + produced * sizeof(TraceRecord),
                (want - produced) * sizeof(TraceRecord));
            if (got == 0)
                return sourceDry(produced);
            landed = produced + got / sizeof(TraceRecord);
            stash_len_ = got % sizeof(TraceRecord);
            std::memcpy(stash_.data(),
                        bytes + landed * sizeof(TraceRecord),
                        stash_len_);
        }
        for (; produced < landed; ++produced) {
            const TraceRecord &record = out[produced];
            if (record.tid >= nthreads_) {
                error_ = "record " + std::to_string(consumed_)
                    + " names unknown thread "
                    + std::to_string(record.tid);
                return streaming_ ? produced : 0;
            }
            if (record.type > kMaxOpType) {
                error_ = "record " + std::to_string(consumed_)
                    + " has invalid op type "
                    + std::to_string(record.type);
                return streaming_ ? produced : 0;
            }
            ++consumed_;
        }
    }
    return produced;
}

std::size_t
TraceReader::sourceDry(std::size_t produced)
{
    if (streaming_ && !ended_)
        return produced;  // stalled: resume after more bytes arrive
    error_ = "truncated at record " + std::to_string(consumed_)
        + " of " + std::to_string(record_count_);
    return streaming_ ? produced : 0;
}

TraceData
TraceData::load(const std::string &path)
{
    TraceData data;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        data.error_ = "cannot open " + path;
        return data;
    }

    // Size the file up front so a corrupt header can't make us read
    // (or allocate for) records that cannot possibly exist.
    in.seekg(0, std::ios::end);
    const auto file_size = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0, std::ios::beg);

    IstreamSource source(in);
    TraceReader reader(source, file_size);
    if (!reader.readHeader()) {
        data.error_ = reader.error();
        return data;
    }
    return fromReader(reader);
}

TraceData
TraceData::fromReader(TraceReader &reader)
{
    TraceData data;
    hdrdAssert(reader.error().empty() && reader.nthreads() > 0,
               "fromReader needs a successfully parsed header");
    data.name_ = reader.name();
    data.fault_spec_ = reader.faultSpec();
    data.per_thread_.resize(reader.nthreads());

    TraceRecord batch[4096];
    for (;;) {
        const std::size_t n = reader.next(batch, std::size(batch));
        if (n == 0)
            break;
        for (std::size_t i = 0; i < n; ++i)
            data.per_thread_[batch[i].tid].push_back(
                batch[i].toOp());
        data.total_ += n;
    }
    if (!reader.done()) {
        data.error_ = reader.error();
        data.per_thread_.clear();
        data.total_ = 0;
    }
    return data;
}

TraceData
TraceData::fromOps(std::string name,
                   std::vector<std::vector<runtime::Op>> per_thread)
{
    hdrdAssert(!per_thread.empty(),
               "in-memory trace needs at least one thread");
    TraceData data;
    data.name_ = std::move(name);
    data.per_thread_ = std::move(per_thread);
    for (const auto &ops : data.per_thread_)
        data.total_ += ops.size();
    return data;
}

bool
TraceData::save(const std::string &path) const
{
    TraceWriter writer(path, name_, nthreads(), fault_spec_);
    if (!writer.ok())
        return false;
    for (ThreadId tid = 0; tid < nthreads(); ++tid) {
        for (const runtime::Op &op : per_thread_[tid])
            writer.record(tid, op);
    }
    return writer.finalize();
}

} // namespace hdrd::trace
