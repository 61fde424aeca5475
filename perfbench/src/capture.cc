#include "capture.hh"

#include <limits>
#include <memory>

#include "common.hh"

namespace perfbench
{

using namespace hdrd;

namespace
{

/** Forwards an inner program, logging fetched ops while open. */
class CaptureProgram final : public runtime::Program
{
  public:
    CaptureProgram(runtime::Program &inner, std::vector<CapturedOp> &log,
                   std::size_t cap)
        : inner_(inner), log_(log), cap_(cap)
    {
    }

    const std::string &name() const override { return inner_.name(); }

    std::uint32_t numThreads() const override
    {
        return inner_.numThreads();
    }

    bool implicitStart() const override
    {
        return inner_.implicitStart();
    }

    std::vector<runtime::InjectedRace> injectedRaces() const override
    {
        return inner_.injectedRaces();
    }

    std::unique_ptr<runtime::ThreadBody> makeThread(ThreadId tid) override;

    /** Stop logging (the window is complete). */
    void close() { open_ = false; }

    /** More ops were fetched than the log may hold. */
    bool overflowed() const { return overflow_; }

    void record(ThreadId tid, const runtime::Op *op)
    {
        if (!open_)
            return;
        if (log_.size() >= cap_) {
            overflow_ = true;
            return;
        }
        CapturedOp entry;
        entry.tid = tid;
        if (op != nullptr)
            entry.op = *op;
        else
            entry.finish = true;
        log_.push_back(entry);
    }

  private:
    runtime::Program &inner_;
    std::vector<CapturedOp> &log_;
    std::size_t cap_;
    bool open_ = true;
    bool overflow_ = false;
};

class CaptureBody final : public runtime::ThreadBody
{
  public:
    CaptureBody(ThreadId tid, std::unique_ptr<runtime::ThreadBody> inner,
                CaptureProgram &owner)
        : tid_(tid), inner_(std::move(inner)), owner_(owner)
    {
    }

    bool next(runtime::Op &op) override
    {
        if (!inner_->next(op)) {
            owner_.record(tid_, nullptr);
            return false;
        }
        owner_.record(tid_, &op);
        return true;
    }

    /** The log is one global stream in next()-call order. */
    bool nextIsPure() const override { return false; }

  private:
    ThreadId tid_;
    std::unique_ptr<runtime::ThreadBody> inner_;
    CaptureProgram &owner_;
};

std::unique_ptr<runtime::ThreadBody>
CaptureProgram::makeThread(ThreadId tid)
{
    return std::make_unique<CaptureBody>(tid, inner_.makeThread(tid),
                                         *this);
}

} // namespace

runtime::RunResult
runCaptured(runtime::Simulator &engine, runtime::Program &program,
            std::uint64_t window, CellCapture &capture)
{
    // Blocked lock/wait ops and thread ends are fetched without
    // executing, so the log may run a little past the window.
    const std::size_t slack = 4096 + 4 * program.numThreads();
    capture.ops.clear();
    capture.ops.reserve(window + slack);
    capture.config = engine.config();
    capture.nthreads = program.numThreads();
    capture.implicit_start = program.implicitStart();

    CaptureProgram wrapped(program, capture.ops, window + slack);
    bool taken = false;
    runtime::RunObserver observer;
    observer.interval_ops = window;
    observer.on_partial = [&](const runtime::RunResult &snapshot) {
        if (taken)
            return;
        taken = true;
        capture.window = snapshot;
        wrapped.close();
        // One more countdown is already armed; push later ones out.
        observer.interval_ops = std::numeric_limits<std::uint64_t>::max();
    };
    runtime::RunResult full = engine.run(wrapped, &observer);
    if (wrapped.overflowed())
        die("capture of " + capture.owner + " overflowed its log");
    if (!taken)
        capture.window = full;
    return full;
}

} // namespace perfbench
