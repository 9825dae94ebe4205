/**
 * @file
 * The sweep-service scheduler: admission, shard dispatch, failure
 * recovery, and the incremental in-order merge.
 *
 * Admission is the lint gate, BEFORE any worker spins up:
 * analysis::checkSweepDocument, the check `camj_lint` runs, so a
 * document is rejected with exactly the CAMJ-* codes and paths lint
 * prints. The GridAnalyzer's provably infeasible points are REPORTED
 * but still evaluated, because pruning would change the output bytes
 * and the service's contract is byte-identity with a local
 * `camj_sweep run`.
 *
 * Each admitted job gets its own thread running the dispatch/monitor
 * loop: planShards partitions the grid, every shard runs as either an
 * in-process worker (runShard over the job's one parent grid, on a
 * std::thread) or a subprocess worker (fork/exec of `camj_sweep run`
 * over a shard descriptor file), and every attempt writes an ordinary
 * shard JSONL file through runShard. The monitor tails those files,
 * folding complete lines into the merge state — at-least-once dispatch made
 * exactly-once output by construction: a failed, killed, or stalled
 * attempt is salvaged up to its last complete line, the shard's
 * still-missing indices are re-dispatched as ONE explicitShard over
 * exactly the hole (the resume-plan shape of `camj_sweep merge`), and
 * any index arriving twice fails the job loudly, mirroring
 * mergeShardFiles's duplicate/overlap errors. Merged lines are
 * committed to the job's spool the moment the global prefix extends,
 * so clients stream results while later shards still run, and the
 * end-of-stream MergeSummary is reduced through the same
 * accumulateMergeRecord that batch merges use.
 *
 * Failure detection: subprocess workers by waitpid plus an
 * output-growth heartbeat (a worker whose attempt file stops growing
 * for heartbeatSeconds is presumed wedged, killed, and re-dispatched);
 * in-process workers by exception capture and the job's CancelToken
 * (a stuck in-process worker cannot be killed — that mode trades
 * isolation for latency, and docs/service.md says so).
 */

#ifndef CAMJ_SERVE_SCHEDULER_H
#define CAMJ_SERVE_SCHEDULER_H

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/diagnostic.h"
#include "serve/registry.h"
#include "spec/grid.h"

namespace camj::serve
{

/** How the scheduler runs jobs. */
struct SchedulerOptions
{
    /** Shards per job (workers running concurrently). */
    size_t shards = 2;
    /** SweepEngine threads per worker; 0 = all cores. */
    int threadsPerWorker = 1;
    /** Frames per design point (a submit frame may override). */
    int frames = 1;
    /** Run shards as `camj_sweep run` subprocesses instead of
     *  in-process engine threads. */
    bool subprocessWorkers = false;
    /** The camj_sweep binary (subprocess mode). */
    std::string sweepBinary;
    /** Shared content-addressed outcome store directory; empty
     *  disables it. Repeated or overlapping submissions answer from
     *  the store instead of re-simulating. */
    std::string cacheDir;
    /** Where attempt files and shard descriptors live. */
    std::string workDir;
    /** Top-K table size of the end-of-stream summary. */
    size_t topK = 5;
    /** Subprocess stall detector: no attempt-file growth for this
     *  long while the process lives means kill + re-dispatch. */
    double heartbeatSeconds = 30.0;
    /** Dispatch attempts per shard before the job fails. */
    size_t maxAttempts = 3;
    /** Fault injection for tests and CI: the listed shard indices
     *  fail their FIRST attempt deterministically (in-process: the
     *  worker dies after half its points; subprocess: the worker is
     *  SIGKILLed at spawn), exercising the salvage +
     *  re-dispatch path on an otherwise healthy run. */
    std::vector<size_t> testFailShards;
};

/** The scheduler: one dispatch thread per admitted job. */
class Scheduler
{
  public:
    /** What submit() decided. */
    struct Admission
    {
        /** The admitted job; nullptr when rejected. */
        std::shared_ptr<JobRecord> job;
        /** Rejection reason (empty when admitted). */
        std::string reason;
        /** Lint findings (rejections carry the errors; admissions
         *  may carry warnings). */
        std::vector<analysis::Diagnostic> diagnostics;
        size_t points = 0;
        size_t pruned = 0;
    };

    Scheduler(SchedulerOptions options, JobRegistry &registry);

    /** Joins every job thread (cancels nothing — call cancelAll()
     *  first for a fast teardown). */
    ~Scheduler();

    /**
     * Admission + dispatch. Lints @p doc_text, and either rejects
     * (Admission::job == nullptr, reason + diagnostics filled) or
     * creates a job and starts its dispatch thread. @p frames /
     * @p threads override the scheduler defaults when positive.
     * Never throws on a bad document — that is a rejection.
     */
    Admission submit(const std::string &doc_text, int frames = 0,
                     int threads = 0);

    /** Stop admitting (submit() rejects from now on) and wait for
     *  every running job to reach a terminal state. */
    void drain();

    /** Fire every active job's CancelToken. */
    void cancelAll();

    const SchedulerOptions &options() const { return options_; }

  private:
    void runJob(std::shared_ptr<JobRecord> job,
                spec::SweepDocument doc,
                std::unique_ptr<spec::GridSpecSource> grid, int frames,
                int threads);

    SchedulerOptions options_;
    JobRegistry &registry_;
    std::mutex threadsMutex_;
    std::vector<std::thread> threads_; // guarded by threadsMutex_
    bool stopped_ = false;             // guarded by threadsMutex_
};

} // namespace camj::serve

#endif // CAMJ_SERVE_SCHEDULER_H
