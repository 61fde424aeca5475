/**
 * @file
 * Capture a bounded window of one engine run's executed operations,
 * from outside the engine: the program's thread bodies are wrapped
 * and every op is logged in fetch order, the way
 * trace::RecordingProgram records (next() is declared impure, so the
 * simulator fetches each op exactly when it executes it).
 */

#ifndef PERFBENCH_CAPTURE_HH
#define PERFBENCH_CAPTURE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/op.hh"
#include "runtime/program.hh"
#include "runtime/simulator.hh"

namespace perfbench
{

/** One fetched op, or the end of a thread's stream. */
struct CapturedOp
{
    hdrd::runtime::Op op{};
    hdrd::ThreadId tid = 0;

    /** The thread's body ended here (op is unused). */
    bool finish = false;
};

/** A captured window plus what the engine reported at its end. */
struct CellCapture
{
    std::string owner;
    hdrd::runtime::SimConfig config;
    std::uint32_t nthreads = 0;
    bool implicit_start = true;

    /** Fetch-order log of the window. */
    std::vector<CapturedOp> ops;

    /** The engine's partial result after the window's last op. */
    hdrd::runtime::RunResult window;
};

/**
 * Run @p program on @p engine, capturing the ops of its first
 * @p window executed operations (the whole run when shorter).
 * @return the complete run's result, identical to an uncaptured run.
 */
hdrd::runtime::RunResult runCaptured(hdrd::runtime::Simulator &engine,
                                     hdrd::runtime::Program &program,
                                     std::uint64_t window,
                                     CellCapture &capture);

} // namespace perfbench

#endif // PERFBENCH_CAPTURE_HH
