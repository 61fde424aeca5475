/**
 * @file
 * Trace writing and reading.
 *
 * TraceWriter streams records to a file (header patched on
 * finalize); TraceReader incrementally parses and validates a trace
 * from any byte source (header first, then record batches), so
 * consumers can reject a bad trace before buffering its body;
 * TraceData loads and validates a whole trace into memory,
 * partitioned per thread for replay.
 */

#ifndef HDRD_TRACE_TRACE_IO_HH
#define HDRD_TRACE_TRACE_IO_HH

#include <cstdint>
#include <fstream>
#include <istream>
#include <string>
#include <vector>

#include "runtime/op.hh"
#include "trace/trace_format.hh"

namespace hdrd::trace
{

/**
 * Streams operation records into a trace file.
 */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing and reserve the header.
     * @param name program name stored in the header
     * @param nthreads thread count of the recorded program
     * @param fault_spec canonical fault spec of the recording run
     *        ("none" when the signal path is clean)
     */
    TraceWriter(const std::string &path, const std::string &name,
                std::uint32_t nthreads,
                const std::string &fault_spec = "none");

    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** True when the file opened successfully. */
    bool ok() const { return ok_; }

    /** Append one operation. */
    void record(ThreadId tid, const runtime::Op &op);

    /**
     * Patch the header with the final count and close the file.
     * @return false when any write (including earlier record()
     *         calls) failed; the file should then be discarded.
     */
    bool finalize();

    /** Records written so far. */
    std::uint64_t recorded() const { return count_; }

  private:
    std::ofstream out_;
    TraceHeader header_;
    std::uint64_t count_ = 0;
    bool ok_ = false;
    bool finalized_ = false;
};

/**
 * Abstract pull-based byte source for streaming trace parsing.
 *
 * The reader never seeks, so a source can wrap a plain file, an
 * in-memory buffer, or a socket carrying a length-prefixed trace
 * payload.
 */
class ByteSource
{
  public:
    virtual ~ByteSource() = default;

    /**
     * Read up to @p n bytes into @p dst.
     * @return bytes actually read; 0 means end-of-stream or a read
     *         error (the reader treats both as truncation).
     */
    virtual std::size_t read(char *dst, std::size_t n) = 0;
};

/** ByteSource over a std::istream (files, string streams). */
class IstreamSource : public ByteSource
{
  public:
    explicit IstreamSource(std::istream &in) : in_(in) {}

    std::size_t read(char *dst, std::size_t n) override
    {
        in_.read(dst, static_cast<std::streamsize>(n));
        return static_cast<std::size_t>(in_.gcount());
    }

  private:
    std::istream &in_;
};

/**
 * Incremental, validating trace parser.
 *
 * Usage: construct over a ByteSource whose total trace size is known
 * (file size, or a framed payload length for network streams), call
 * readHeader() — all header-level validation happens here, before a
 * single record byte is consumed — then pull record batches with
 * next() until done(). Any validation failure (bad magic, implausible
 * header, mid-stream truncation, invalid record) poisons the reader
 * with a precise error(); a poisoned reader never yields records.
 *
 * **Streaming mode** (total size unknown up front — chunked network
 * ingestion): construct with resumable = true. The source returning 0
 * then means "no bytes available right now", not truncation: the
 * reader stashes any partial header/record — including a chunk
 * boundary that splits a record at its very first byte — and
 * readHeader()/next() return false/0 with an *empty* error(), to be
 * retried once the caller has fed the source more bytes. Call
 * endOfStream() when the producer is done; after that a short read is
 * a truncation error again, and done() requires every declared record
 * to have arrived. When the total is known (a framed upload), the
 * size-vs-header consistency checks still run from the header;
 * with kUnknownSize they are deferred: a short stream surfaces as
 * truncation at the missing record, trailing garbage is the caller's
 * to detect (bytes left in its buffer after done()).
 *
 * TraceData::load() is a thin wrapper; hdrd_served uses the reader
 * directly so a bad trace is rejected from its header without
 * buffering the (possibly huge) body.
 */
class TraceReader
{
  public:
    /** total_bytes sentinel selecting streaming mode. */
    static constexpr std::uint64_t kUnknownSize = ~0ull;

    /**
     * @param source byte stream positioned at the first header byte
     * @param total_bytes declared total size of the trace in bytes,
     *        or kUnknownSize
     * @param resumable streaming mode (see the class comment); always
     *        on for kUnknownSize
     */
    TraceReader(ByteSource &source, std::uint64_t total_bytes,
                bool resumable = false);

    /**
     * Parse and validate the header.
     * @return false when the header is invalid (see error()), or —
     *         streaming mode only — when it is still incomplete
     *         (error() empty: retry after feeding the source).
     */
    bool readHeader();

    /**
     * Read and validate up to @p max records into @p out.
     * @return records produced; 0 when the stream is exhausted or
     *         the reader is poisoned (check error()/done()), or —
     *         streaming mode only — when the next record is still
     *         incomplete (error() empty, not done(): feed and retry).
     */
    std::size_t next(TraceRecord *out, std::size_t max);

    /**
     * Streaming mode: declare that no further bytes will arrive.
     * An incomplete header or record after this poisons the reader
     * with a truncation error on the next readHeader()/next() call.
     */
    void endOfStream() { ended_ = true; }

    /** True when every declared record was consumed successfully. */
    bool done() const
    {
        return header_ok_ && error_.empty()
            && consumed_ == record_count_;
    }

    /**
     * Streaming mode: true while the reader is healthy but blocked
     * on more input (the retry condition described above).
     */
    bool starved() const
    {
        return streaming_ && error_.empty() && !done() && !ended_;
    }

    /** Why parsing failed (empty while healthy). */
    const std::string &error() const { return error_; }

    /** Records successfully consumed so far. */
    std::uint64_t consumed() const { return consumed_; }

    /** Header fields (valid after a successful readHeader()). */
    const std::string &name() const { return name_; }
    const std::string &faultSpec() const { return fault_spec_; }
    std::uint32_t nthreads() const { return nthreads_; }
    std::uint64_t recordCount() const { return record_count_; }

  private:
    /** Read exactly @p n bytes; false on short read. */
    bool readExact(char *dst, std::size_t n);

    /**
     * Streaming mode: accumulate until the stash holds @p n bytes.
     * @return true when the stash is full; false when the source ran
     *         dry first (a resumable stall, unless endOfStream()).
     */
    bool fillStash(std::size_t n);

    ByteSource &source_;
    std::uint64_t total_bytes_;
    std::string error_;
    std::string name_;
    std::string fault_spec_ = "none";
    std::uint32_t nthreads_ = 0;
    std::uint64_t record_count_ = 0;
    std::uint64_t consumed_ = 0;
    bool header_ok_ = false;
    bool streaming_ = false;
    bool ended_ = false;
    /** Partial header/record carried across streaming stalls. */
    std::array<char, sizeof(TraceHeader)> stash_{};
    std::size_t stash_len_ = 0;
};

/**
 * A fully loaded, validated trace.
 */
class TraceData
{
  public:
    /**
     * Load @p path.
     * @return the trace, or an empty object whose error() explains
     *         what was wrong (bad magic, truncation, invalid record,
     *         declared record count inconsistent with the file size).
     */
    static TraceData load(const std::string &path);

    /**
     * Build a trace directly from per-thread operation vectors (the
     * shrinker mutates candidate traces in memory without touching
     * disk for every attempt).
     */
    static TraceData fromOps(
        std::string name,
        std::vector<std::vector<runtime::Op>> per_thread);

    /**
     * Drain @p reader (whose readHeader() must already have
     * succeeded) into a loaded trace. On any mid-stream failure the
     * result is empty with the reader's error — never a partial
     * trace.
     */
    static TraceData fromReader(TraceReader &reader);

    /** Write this trace to @p path. @return false on I/O failure. */
    bool save(const std::string &path) const;

    /** True when the load succeeded. */
    bool ok() const { return error_.empty(); }

    /** Why the load failed (empty on success). */
    const std::string &error() const { return error_; }

    /** Program name from the header. */
    const std::string &name() const { return name_; }

    /**
     * Fault spec the trace was recorded under ("none" for clean runs
     * and every v1 trace). Round-trips through save()/load().
     */
    const std::string &faultSpec() const { return fault_spec_; }

    /** Set the fault spec stored by save(). */
    void setFaultSpec(std::string spec)
    {
        fault_spec_ = std::move(spec);
    }

    /** Thread count. */
    std::uint32_t nthreads() const
    {
        return static_cast<std::uint32_t>(per_thread_.size());
    }

    /** Total operations across threads. */
    std::uint64_t totalOps() const { return total_; }

    /** Thread @p tid's operations in program order. */
    const std::vector<runtime::Op> &threadOps(ThreadId tid) const;

  private:
    std::string error_;
    std::string name_;
    std::string fault_spec_ = "none";
    std::uint64_t total_ = 0;
    std::vector<std::vector<runtime::Op>> per_thread_;
};

} // namespace hdrd::trace

#endif // HDRD_TRACE_TRACE_IO_HH
