#include "serve/scheduler.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/lint_command.h"
#include "common/logging.h"
#include "explore/jsonl.h"
#include "serve/protocol.h"
#include "spec/shard.h"

namespace camj::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * The incremental in-order merge: the streaming twin of
 * mergeShardFiles. offer() keys on the global index, rejects
 * duplicates as loudly as the batch merge rejects overlaps, buffers
 * out-of-order arrivals, and commits the contiguous prefix to the
 * job's spool the moment it extends — summary reduction through the
 * shared accumulateMergeRecord, so a streamed merge cannot drift
 * from a batch merge.
 */
struct MergeState
{
    size_t total = 0;
    std::vector<bool> seen;
    std::map<size_t, JsonlRecord> pending;
    size_t next = 0;
    MergeSummary summary;

    void offer(JobRecord &job, JsonlRecord record)
    {
        if (record.index >= total)
            fatal("serve: worker produced index %zu but the grid "
                  "covers [0, %zu)", record.index, total);
        if (seen[record.index])
            fatal("serve: duplicate index %zu — two shard attempts "
                  "overlap", record.index);
        seen[record.index] = true;
        pending.emplace(record.index, std::move(record));
        std::string batch;
        while (!pending.empty() && pending.begin()->first == next) {
            JsonlRecord r = std::move(pending.begin()->second);
            pending.erase(pending.begin());
            batch += r.raw;
            batch += '\n';
            accumulateMergeRecord(summary, std::move(r));
            ++next;
        }
        if (!batch.empty()) {
            job.appendSpool(batch);
            job.pointsDone.store(next, std::memory_order_relaxed);
        }
    }
};

/** One shard's dispatch slot: its full ownership, the attempt
 *  currently running, and the tail state of that attempt's file. */
struct WorkerSlot
{
    spec::ShardAssignment owned;
    spec::ShardAssignment current;
    size_t shardIndex = 0;
    size_t attempts = 0;
    bool active = false;
    bool done = false;

    std::string attemptPath;
    size_t consumed = 0;
    std::string tailBytes;
    Clock::time_point lastProgress;

    // In-process attempt: worker publishes failText, then verdict
    // (release); the monitor reads verdict (acquire), joins, then
    // reads failText.
    std::thread thread;
    std::shared_ptr<std::atomic<int>> verdict;
    std::shared_ptr<std::string> failText;

    // Subprocess attempt.
    pid_t pid = -1;
};

/** Worker verdicts. */
constexpr int kRunning = -1;
constexpr int kOk = 0;
constexpr int kFailed = 1;
constexpr int kJobCancelled = 2;

std::string
describeExit(int status)
{
    if (WIFEXITED(status))
        return strprintf("worker exited with status %d",
                         WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return strprintf("worker killed by signal %d",
                         WTERMSIG(status));
    return "worker ended abnormally";
}

json::Value
summaryToJson(const MergeSummary &summary)
{
    json::Value o = json::Value::makeObject();
    o.set("records", static_cast<int64_t>(summary.records));
    o.set("feasible", static_cast<int64_t>(summary.feasible));
    o.set("infeasible", static_cast<int64_t>(summary.infeasible));
    o.set("totalEnergy", summary.totalEnergy);
    json::Value cats = json::Value::makeObject();
    for (const auto &[name, e] : summary.categoryTotals)
        cats.set(name, e);
    o.set("categoryTotals", std::move(cats));
    json::Value top = json::Value::makeArray();
    for (const JsonlRecord &r : summary.topK) {
        json::Value t = json::Value::makeObject();
        t.set("index", static_cast<int64_t>(r.index));
        t.set("design", r.design);
        t.set("totalEnergy", r.totalEnergy);
        top.push(std::move(t));
    }
    o.set("topK", std::move(top));
    o.set("text", formatMergeSummary(summary));
    return o;
}

} // namespace

Scheduler::Scheduler(SchedulerOptions options, JobRegistry &registry)
    : options_(std::move(options)), registry_(registry)
{
    if (options_.shards == 0)
        options_.shards = 1;
    if (options_.workDir.empty())
        options_.workDir =
            (std::filesystem::temp_directory_path() /
             strprintf("camj-serve-%d", static_cast<int>(::getpid())))
                .string();
    std::error_code ec;
    std::filesystem::create_directories(options_.workDir, ec);
    if (ec)
        fatal("serve: cannot create work dir '%s': %s",
              options_.workDir.c_str(), ec.message().c_str());
    if (options_.subprocessWorkers && options_.sweepBinary.empty())
        fatal("serve: subprocess workers need the camj_sweep binary "
              "path");
}

Scheduler::~Scheduler()
{
    drain();
}

Scheduler::Admission
Scheduler::submit(const std::string &doc_text, int frames,
                  int threads)
{
    Admission adm;

    // Admission is the lint gate: the same check `camj_lint` runs, so
    // a document is served exactly when it lints clean.
    analysis::DocumentCheck check =
        analysis::checkSweepDocument(doc_text);
    adm.diagnostics = std::move(check.diagnostics);
    switch (check.failed) {
      case analysis::DocumentCheck::Stage::Passed:
        break;
      case analysis::DocumentCheck::Stage::Parse:
        adm.reason = "document does not parse";
        return adm;
      case analysis::DocumentCheck::Stage::Analysis:
        adm.reason = "static analysis found errors";
        return adm;
      case analysis::DocumentCheck::Stage::Document:
        adm.reason = "invalid sweep document";
        return adm;
    }
    spec::SweepDocument doc = std::move(*check.document);
    adm.points = doc.grid.points();
    // Provably doomed points are REPORTED, not pruned: the served
    // stream must stay byte-identical to a local run over the full
    // grid.
    adm.pruned = check.grid->prunedPoints();

    std::lock_guard<std::mutex> lock(threadsMutex_);
    if (stopped_) {
        adm.reason = "server is shutting down";
        return adm;
    }
    adm.job = registry_.create();
    adm.job->pointsTotal.store(adm.points, std::memory_order_relaxed);
    adm.job->prunedPoints.store(adm.pruned,
                                std::memory_order_relaxed);
    const int f = frames > 0 ? frames : options_.frames;
    const int t = threads > 0 ? threads : options_.threadsPerWorker;
    auto job = adm.job;
    threads_.emplace_back(
        [this, job, d = std::move(doc), g = std::move(check.source), f,
         t]() mutable {
            runJob(job, std::move(d), std::move(g), f, t);
        });
    return adm;
}

void
Scheduler::drain()
{
    std::vector<std::thread> taken;
    {
        std::lock_guard<std::mutex> lock(threadsMutex_);
        stopped_ = true;
        taken.swap(threads_);
    }
    for (std::thread &t : taken)
        t.join();
}

void
Scheduler::cancelAll()
{
    for (const auto &job : registry_.jobs()) {
        if (!job->terminal())
            job->cancel.cancel();
    }
}

void
Scheduler::runJob(std::shared_ptr<JobRecord> job,
                  spec::SweepDocument doc,
                  std::unique_ptr<spec::GridSpecSource> grid, int frames,
                  int threads)
{
    std::string job_error;
    bool cancelled = false;
    std::vector<std::unique_ptr<WorkerSlot>> slots;
    MergeState merge;
    merge.summary.topKLimit = options_.topK;

    // Tail @p slot's attempt file: consume the new COMPLETE lines
    // (a partial trailing line stays in tailBytes until its newline
    // lands — or is dropped with the attempt, which is exactly the
    // salvage rule for a worker killed mid-write).
    auto consume = [&](WorkerSlot &slot) {
        std::ifstream in(slot.attemptPath, std::ios::binary);
        if (!in)
            return;
        in.seekg(static_cast<std::streamoff>(slot.consumed));
        if (!in)
            return;
        std::string chunk{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
        if (chunk.empty())
            return;
        slot.consumed += chunk.size();
        slot.lastProgress = Clock::now();
        slot.tailBytes += chunk;
        for (;;) {
            const size_t pos = slot.tailBytes.find('\n');
            if (pos == std::string::npos)
                break;
            std::string line = slot.tailBytes.substr(0, pos);
            slot.tailBytes.erase(0, pos + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            merge.offer(*job, parseJsonlLine(line));
        }
    };

    auto launchInProcess = [&](WorkerSlot &slot, bool inject) {
        auto verdict = std::make_shared<std::atomic<int>>(kRunning);
        auto fail_text = std::make_shared<std::string>();
        slot.verdict = verdict;
        slot.failText = fail_text;
        const spec::ShardAssignment a = slot.current;
        const std::string path = slot.attemptPath;
        const std::string cache_dir = options_.cacheDir;
        spec::GridSpecSource *parent = grid.get();
        slot.thread = std::thread([parent, job, a, path, inject,
                                   frames, threads, cache_dir,
                                   verdict, fail_text] {
            int v = kOk;
            try {
                std::ofstream out(path, std::ios::binary);
                if (!out)
                    fatal("serve: worker cannot write '%s'",
                          path.c_str());
                SweepOptions options;
                options.threads = threads;
                options.sim.frames = frames;
                options.cacheDir = cache_dir;
                // Fault injection: die after writing the first half
                // of the shard, leaving a partial attempt file.
                spec::ShardAssignment run = a;
                if (inject) {
                    const size_t n =
                        a.count() > 1 ? a.count() / 2 : a.count();
                    std::vector<size_t> half;
                    for (size_t i = 0; i < n; ++i)
                        half.push_back(a.globalIndex(i));
                    run = spec::explicitShard(a.total, std::move(half));
                }
                const StreamStats stats =
                    runShard(*parent, run, options, out, &job->cancel);
                job->cacheHits.fetch_add(stats.outcomeCacheHits,
                                         std::memory_order_relaxed);
                if (job->cancel.cancelled())
                    v = kJobCancelled;
                else if (inject)
                    v = kFailed;
            } catch (const std::exception &e) {
                *fail_text = e.what();
                v = kFailed;
            }
            verdict->store(v, std::memory_order_release);
        });
    };

    auto launchSubprocess = [&](WorkerSlot &slot, bool inject) {
        const std::string desc_path = strprintf(
            "%s/%s-shard-%zu-attempt-%zu.json",
            options_.workDir.c_str(), job->id().c_str(),
            slot.shardIndex, slot.attempts);
        {
            std::ofstream desc(desc_path, std::ios::binary);
            desc << spec::shardDescriptorToJson(
                spec::ShardDescriptor{doc, slot.current});
            desc.flush();
            if (!desc)
                fatal("serve: cannot write shard descriptor '%s'",
                      desc_path.c_str());
        }
        std::vector<std::string> args = {
            options_.sweepBinary, "run",       desc_path,
            "--out",              slot.attemptPath,
            "--threads",          std::to_string(threads),
            "--frames",           std::to_string(frames),
            "--no-lint"};
        if (!options_.cacheDir.empty()) {
            args.push_back("--cache-dir");
            args.push_back(options_.cacheDir);
        }
        const std::string log_path = slot.attemptPath + ".log";
        const pid_t pid = ::fork();
        if (pid < 0)
            fatal("serve: fork failed: %s", std::strerror(errno));
        if (pid == 0) {
            const int log_fd = ::open(log_path.c_str(),
                                      O_WRONLY | O_CREAT | O_TRUNC,
                                      0644);
            if (log_fd >= 0) {
                ::dup2(log_fd, 1);
                ::dup2(log_fd, 2);
                ::close(log_fd);
            }
            std::vector<char *> argv;
            argv.reserve(args.size() + 1);
            for (const std::string &arg : args)
                argv.push_back(const_cast<char *>(arg.c_str()));
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        slot.pid = pid;
        // Fault injection must beat the worker: kill at spawn, while
        // the child is still pre-exec, so the restart is
        // deterministic even for shards that finish in milliseconds.
        if (inject)
            ::kill(pid, SIGKILL);
    };

    auto launch = [&](WorkerSlot &slot) {
        ++slot.attempts;
        slot.attemptPath = strprintf(
            "%s/%s-shard-%zu-attempt-%zu.jsonl",
            options_.workDir.c_str(), job->id().c_str(),
            slot.shardIndex, slot.attempts);
        slot.consumed = 0;
        slot.tailBytes.clear();
        slot.lastProgress = Clock::now();
        slot.active = true;
        const bool inject =
            slot.attempts == 1 &&
            std::find(options_.testFailShards.begin(),
                      options_.testFailShards.end(),
                      slot.shardIndex) !=
                options_.testFailShards.end();
        if (options_.subprocessWorkers)
            launchSubprocess(slot, inject);
        else
            launchInProcess(slot, inject);
    };

    // An attempt ended (worker finished, crashed, was killed, or
    // stalled): everything its file holds is already merged, so the
    // shard's remaining hole is exactly its owned-but-unseen indices.
    // Re-dispatch ONE explicit shard over that hole — the same
    // resume shape `camj_sweep merge --resume-plan` emits.
    auto finalize = [&](WorkerSlot &slot, int verdict,
                        const std::string &fail_text) {
        slot.active = false;
        std::vector<size_t> missing;
        for (size_t local = 0; local < slot.owned.count(); ++local) {
            const size_t global = slot.owned.globalIndex(local);
            if (!merge.seen[global])
                missing.push_back(global);
        }
        if (missing.empty()) {
            slot.done = true;
            return;
        }
        if (verdict == kJobCancelled)
            return;
        if (slot.attempts >= options_.maxAttempts)
            fatal("serve: shard %zu still missing %zu point(s) "
                  "after %zu attempt(s)%s%s", slot.shardIndex,
                  missing.size(), slot.attempts,
                  fail_text.empty() ? "" : ": ", fail_text.c_str());
        job->workerRestarts.fetch_add(1, std::memory_order_relaxed);
        slot.current =
            spec::explicitShard(merge.total, std::move(missing));
        launch(slot);
    };

    auto reapSubprocess = [&](WorkerSlot &slot, int status) {
        slot.pid = -1;
        consume(slot);
        const int verdict =
            job->cancel.cancelled()
                ? kJobCancelled
                : (WIFEXITED(status) && WEXITSTATUS(status) == 0
                       ? kOk
                       : kFailed);
        finalize(slot, verdict,
                 verdict == kFailed ? describeExit(status) : "");
    };

    auto tick = [&](WorkerSlot &slot) {
        if (!slot.active)
            return;
        consume(slot);
        if (slot.pid > 0) {
            int status = 0;
            const pid_t r = ::waitpid(slot.pid, &status, WNOHANG);
            if (r == slot.pid) {
                reapSubprocess(slot, status);
            } else if (std::chrono::duration<double>(
                           Clock::now() - slot.lastProgress)
                           .count() > options_.heartbeatSeconds) {
                // Straggler: alive but not producing. Kill, salvage,
                // re-dispatch the hole.
                ::kill(slot.pid, SIGKILL);
                ::waitpid(slot.pid, &status, 0);
                slot.pid = -1;
                consume(slot);
                finalize(slot,
                         job->cancel.cancelled() ? kJobCancelled
                                                 : kFailed,
                         "stalled: no output growth past the "
                         "heartbeat window");
            }
            return;
        }
        const int v = slot.verdict->load(std::memory_order_acquire);
        if (v == kRunning)
            return;
        slot.thread.join();
        consume(slot);
        finalize(slot, v, *slot.failText);
    };

    try {
        job->setState(JobState::Running);
        const size_t total = doc.grid.points();
        merge.total = total;
        merge.seen.assign(total, false);
        const size_t shard_count =
            std::min(options_.shards, std::max<size_t>(total, 1));
        const spec::ShardPlan plan = spec::planShards(
            total, shard_count, spec::ShardMode::Contiguous);
        for (size_t k = 0; k < plan.shards.size(); ++k) {
            auto slot = std::make_unique<WorkerSlot>();
            slot->owned = plan.shards[k];
            slot->current = plan.shards[k];
            slot->shardIndex = k;
            slots.push_back(std::move(slot));
        }
        for (const auto &slot : slots)
            launch(*slot);

        for (;;) {
            if (job->cancel.cancelled()) {
                cancelled = true;
                break;
            }
            bool all_done = true;
            for (const auto &slot : slots) {
                tick(*slot);
                if (!slot->done)
                    all_done = false;
            }
            if (all_done)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    } catch (const std::exception &e) {
        job_error = e.what();
    }

    // Teardown: stop whatever is still running. In-process workers
    // observe the cancel token between points; subprocess workers
    // are killed outright.
    if (!job_error.empty() || cancelled)
        job->cancel.cancel();
    for (const auto &slot : slots) {
        if (slot->pid > 0) {
            ::kill(slot->pid, SIGKILL);
            int status = 0;
            ::waitpid(slot->pid, &status, 0);
            slot->pid = -1;
        }
        if (slot->thread.joinable())
            slot->thread.join();
    }

    json::Value end = makeFrame("end");
    end.set("job", job->id());
    if (job_error.empty() && !cancelled &&
        merge.next != merge.total)
        job_error = strprintf(
            "merge finished with %zu of %zu point(s) — a shard hole "
            "survived re-dispatch", merge.next, merge.total);
    if (job_error.empty() && !cancelled) {
        job->setState(JobState::Merging);
        end.set("state", "done");
        end.set("summary", summaryToJson(merge.summary));
    } else if (cancelled && job_error.empty()) {
        end.set("state", "cancelled");
    } else {
        job->setError(job_error);
        end.set("state", "failed");
        end.set("error", job_error);
    }
    end.set("pointsDone", static_cast<int64_t>(merge.next));
    end.set("cacheHits",
            static_cast<int64_t>(
                job->cacheHits.load(std::memory_order_relaxed)));
    end.set("workerRestarts",
            static_cast<int64_t>(job->workerRestarts.load(
                std::memory_order_relaxed)));
    if (job_error.empty() && !cancelled)
        job->setState(JobState::Done);
    else
        job->setState(cancelled && job_error.empty()
                          ? JobState::Cancelled
                          : JobState::Failed);
    job->finishStream(std::move(end));
}

} // namespace camj::serve
