/**
 * @file
 * perfbench — the repository benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--heldout] [--digests FILE] [--out-dir DIR]
 *   perfbench --freeze-digests [--digests FILE] [--out-dir DIR]
 *
 * Workloads: engine-contended, engine-gated (in-process
 * runtime::Simulator::run) and service-buffered (an hdrd_served child
 * driven through one client connection). --trace 0 prints the end-to-end
 * metrics; --trace 1 prints the per-layer metrics of a traced run.
 * The last stdout line is the result JSON. See perfbench/README.md.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "common.hh"
#include "engine.hh"
#include "service.hh"
#include "common/cli.hh"

using namespace perfbench;

namespace
{

std::string g_work_dir;

void
removeWorkDir()
{
    std::error_code ec;
    if (!g_work_dir.empty())
        std::filesystem::remove_all(g_work_dir, ec);
}

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--heldout] [--digests FILE] "
                 "[--out-dir DIR]\n"
                 "       perfbench --freeze-digests [--digests FILE]\n"
                 "workloads: engine-contended engine-gated "
                 "service-buffered\n");
    die(error);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    opt.out_dir = ".bench_build";
    bool have_seed = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            opt.seed = hdrd::cli::parseU64("seed", value());
            have_seed = true;
        } else if (arg == "--seconds") {
            opt.seconds = hdrd::cli::parseDouble("seconds", value(), 0.1,
                                                 3600.0);
        } else if (arg == "--trace") {
            opt.trace = hdrd::cli::parseU32("trace", value(), 0, 1) == 1;
            have_trace = true;
        } else if (arg == "--heldout") {
            opt.heldout = true;
        } else if (arg == "--digests") {
            opt.digests = value();
        } else if (arg == "--out-dir") {
            opt.out_dir = value();
        } else if (arg == "--freeze-digests") {
            opt.freeze = true;
        } else {
            usage("unknown option " + arg);
        }
    }
    if (!opt.freeze) {
        if (!isEngineWorkload(opt.workload)
            && !isServiceWorkload(opt.workload))
            usage("unknown workload '" + opt.workload + "'");
        if (!have_seed || !have_trace)
            usage("--seed and --trace are required");
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);
    if (opt.freeze) {
        freezeDigests(opt);
        return 0;
    }
    // A daemon that dies mid-exchange must surface as a failed job,
    // not kill the load generator.
    std::signal(SIGPIPE, SIG_IGN);
    opt.work_dir = opt.out_dir + "/run-" + std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::create_directories(opt.work_dir, ec);
    if (ec)
        die("cannot create " + opt.work_dir + ": " + ec.message());
    g_work_dir = opt.work_dir;
    std::atexit(removeWorkDir);

    const Result result = isEngineWorkload(opt.workload)
        ? runEngineWorkload(opt)
        : runServiceWorkload(opt);
    std::fprintf(stderr, "perfbench: failed_frac %.6f (%llu of %llu)\n",
                 result.attempted == 0
                     ? 0.0
                     : static_cast<double>(result.failed)
                         / static_cast<double>(result.attempted),
                 static_cast<unsigned long long>(result.failed),
                 static_cast<unsigned long long>(result.attempted));
    printResult(result);
    return 0;
}
