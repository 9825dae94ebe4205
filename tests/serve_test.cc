/**
 * @file
 * Tests for the sweep evaluation service: the line protocol (framing
 * over real sockets, control/result discrimination, oversized-frame
 * rejection), admission linting, and the service contract itself — a
 * served stream is byte-identical to a local in-order run, including
 * after a worker dies mid-sweep and its shard is re-dispatched, with
 * cancellation prompt and completed jobs re-streamable from byte 0.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "explore/sweep.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "spec/samples.h"
#include "reference_fixture.h"

namespace camj
{
namespace
{

namespace fs = std::filesystem;

class QuietLogging : public ::testing::Environment
{
  public:
    void SetUp() override { setLoggingEnabled(false); }
};

::testing::Environment *const quiet_env =
    ::testing::AddGlobalTestEnvironment(new QuietLogging);

/** A fresh per-test scratch directory under the gtest temp root. */
fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("camj_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** The same 12-point study shard_test uses: 4 rates x 3 buffer
 *  nodes, spanning both sides of the feasibility boundary. */
spec::SweepDocument
smallStudy()
{
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.grid.axes = {
        {"rate", "fps",
         {json::Value(15.0), json::Value(30.0), json::Value(120.0),
          json::Value(960.0)}},
        {"node", "memories[ActBuf].nodeNm",
         {json::Value(110), json::Value(65), json::Value(45)}},
    };
    return doc;
}

/** The reference bytes: a full rebuild of every grid point in one
 *  process (runSerial), serialized as a shard file. */
std::string
singleProcessJsonl(const spec::SweepDocument &doc)
{
    return testfix::fullRebuildJsonl(doc.source());
}

/** A Server on an ephemeral loopback port with serve() running on
 *  its own thread; the destructor drains and joins. */
class ServerHarness
{
  public:
    explicit ServerHarness(serve::SchedulerOptions scheduler)
    {
        serve::ServerOptions options;
        options.port = 0;
        options.scheduler = std::move(scheduler);
        server_ = std::make_unique<serve::Server>(std::move(options));
        thread_ = std::thread([this] { server_->serve(); });
    }

    ~ServerHarness()
    {
        server_->requestStop();
        thread_.join();
    }

    int port() const { return server_->port(); }
    serve::Server &server() { return *server_; }

  private:
    std::unique_ptr<serve::Server> server_;
    std::thread thread_;
};

serve::SchedulerOptions
inProcessOptions(const fs::path &work_dir, size_t shards = 3)
{
    serve::SchedulerOptions options;
    options.shards = shards;
    options.threadsPerWorker = 1;
    options.workDir = work_dir.string();
    return options;
}

// ------------------------------------------------------------- protocol

TEST(Protocol, LineReaderSurvivesPartialWritesCrlfAndNoFinalNewline)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Three lines — LF, CRLF, and an unterminated tail — delivered
    // one byte at a time to force partial reads on the other side.
    const std::string wire = "alpha\nbravo\r\n\r\ncharlie";
    std::thread writer([&] {
        for (char c : wire)
            ASSERT_TRUE(serve::writeAll(fds[0], &c, 1));
        ::close(fds[0]);
    });
    serve::LineReader reader(fds[1]);
    std::vector<std::string> lines;
    while (std::optional<std::string> line = reader.next())
        lines.push_back(*line);
    writer.join();
    ::close(fds[1]);
    // Blank lines (the bare CRLF) are skipped; \r is stripped; the
    // final line arrives without its newline.
    EXPECT_EQ(lines,
              (std::vector<std::string>{"alpha", "bravo", "charlie"}));
}

TEST(Protocol, LineReaderRejectsOversizedLines)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string big(200, 'x');
    ASSERT_TRUE(serve::writeAll(fds[0], big.data(), big.size()));
    ::close(fds[0]);
    serve::LineReader reader(fds[1], 64);
    EXPECT_THROW(reader.next(), ConfigError);
    ::close(fds[1]);
}

TEST(Protocol, ControlFramesAreDistinguishedByTheirFirstMember)
{
    json::Value frame = serve::makeFrame("status");
    frame.set("job", std::string("job-1"));
    const std::string line = serve::frameLine(frame);
    // The insertion-ordered writer puts "type" first — the prefix
    // isControlFrame keys on.
    EXPECT_EQ(line.rfind("{\"type\":", 0), 0u) << line;
    EXPECT_TRUE(serve::isControlFrame(line));

    json::Value back = serve::parseFrame(line);
    EXPECT_EQ(back.at("type").asString(), "status");
    EXPECT_EQ(back.getString("job", ""), "job-1");

    // Result lines lead with '{"index":' and are NOT control frames.
    SweepResult result;
    result.index = 7;
    result.designName = "probe";
    const std::string result_line = sweepResultToJsonl(result);
    EXPECT_EQ(result_line.rfind("{\"index\":", 0), 0u) << result_line;
    EXPECT_FALSE(serve::isControlFrame(result_line));

    EXPECT_THROW(serve::parseFrame("not json"), ConfigError);
    EXPECT_THROW(serve::parseFrame("[1, 2]"), ConfigError);
    EXPECT_THROW(serve::parseFrame("{\"index\": 0}"), ConfigError);
}

// ------------------------------------------------------------ admission

TEST(Admission, UnparseableDocumentsAreRejectedWithADiagnostic)
{
    const fs::path dir = scratchDir("serve_admit_parse");
    serve::JobRegistry registry;
    serve::Scheduler scheduler(inProcessOptions(dir), registry);
    const serve::Scheduler::Admission adm =
        scheduler.submit("{ this is not json");
    ASSERT_EQ(adm.job, nullptr);
    EXPECT_EQ(adm.reason, "document does not parse");
    ASSERT_EQ(adm.diagnostics.size(), 1u);
    EXPECT_FALSE(adm.diagnostics[0].code.empty());
    EXPECT_TRUE(registry.jobs().empty());
}

TEST(Admission, StaticAnalysisErrorsRejectBeforeAnyWorkerRuns)
{
    const fs::path dir = scratchDir("serve_admit_lint");
    spec::SweepDocument doc = smallStudy();
    doc.base.mapping.pop_back(); // Classify unmapped: CAMJ-E008
    serve::JobRegistry registry;
    serve::Scheduler scheduler(inProcessOptions(dir), registry);
    const serve::Scheduler::Admission adm =
        scheduler.submit(spec::toJson(doc));
    ASSERT_EQ(adm.job, nullptr);
    EXPECT_EQ(adm.reason, "static analysis found errors");
    bool saw_code = false;
    for (const analysis::Diagnostic &d : adm.diagnostics)
        saw_code = saw_code || d.code == "CAMJ-E008";
    EXPECT_TRUE(saw_code);
    EXPECT_TRUE(registry.jobs().empty());
}

TEST(Admission, RejectionReachesTheClientWithItsRuleCodes)
{
    const fs::path dir = scratchDir("serve_reject_client");
    ServerHarness harness(inProcessOptions(dir));
    spec::SweepDocument doc = smallStudy();
    doc.base.mapping.pop_back();
    serve::Client client(harness.port());
    std::ostringstream out;
    try {
        client.submitAndStream(spec::toJson(doc), out);
        FAIL() << "broken document not rejected";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("CAMJ-E008"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(out.str().empty());
}

#ifdef CAMJ_LINT_BIN

/** "error CAMJ-E003 at sweepGrid.axes[0].path" for every error line
 *  of @p text (camj_lint's stdout), in order. */
std::vector<std::string>
errorSites(const std::string &text)
{
    std::vector<std::string> sites;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        const size_t at = line.find("error CAMJ-");
        if (at == std::string::npos)
            continue;
        sites.push_back(line.substr(at, line.find(": ", at) - at));
    }
    return sites;
}

TEST(Admission, RejectsWithExactlyTheErrorsCamjLintPrints)
{
    // The error documents of CamjSweepCli.LintMatchesCamjLint.
    const fs::path dir = scratchDir("serve_admit_lint_parity");
    std::ifstream in(fs::path(CAMJ_EXAMPLES_DIR) / "detector_sweep.json",
                     std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    ASSERT_FALSE(text.empty());

    json::Value dangling = json::Value::parse(text);
    dangling.find("sweepGrid")->find("axes")->mutableArray()[0].set(
        "path", json::Value("memories[Nope].nodeNm"));
    json::Value empty_axis = json::Value::parse(text);
    empty_axis.find("sweepGrid")->find("axes")->mutableArray()[2].set(
        "values", json::Value::makeArray());
    json::Value bad_value = json::Value::parse(text);
    bad_value.find("sweepGrid")->find("axes")->mutableArray()[0]
        .find("values")->mutableArray()[0] = json::Value("fast");
    const struct
    {
        const char *name;
        std::string doc;
        const char *site; // the error lint must report
    } cases[] = {
        {"dangling", dangling.dump(),
         "error CAMJ-E003 at sweepGrid.axes[0].path"},
        {"empty_axis", empty_axis.dump(), "error CAMJ-E018"},
        {"bad_value", bad_value.dump(), "error CAMJ-E018"},
        {"truncated", text.substr(0, text.size() / 2),
         "error CAMJ-E018"},
    };

    serve::JobRegistry registry;
    serve::Scheduler scheduler(inProcessOptions(dir), registry);
    for (const auto &c : cases) {
        const fs::path file = dir / (std::string(c.name) + ".json");
        {
            std::ofstream out(file, std::ios::binary);
            out << c.doc;
        }
        const fs::path lint_out = dir / "lint.txt";
        const int status = std::system(
            (std::string(CAMJ_LINT_BIN) + " " + file.string() + " > " +
             lint_out.string() + " 2>/dev/null")
                .c_str());
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1)
            << c.name;
        std::ifstream lint_in(lint_out, std::ios::binary);
        std::ostringstream lint_text;
        lint_text << lint_in.rdbuf();
        const std::vector<std::string> linted =
            errorSites(lint_text.str());
        EXPECT_EQ(linted, std::vector<std::string>{c.site})
            << c.name << ":\n" << lint_text.str();

        const serve::Scheduler::Admission adm = scheduler.submit(c.doc);
        EXPECT_EQ(adm.job, nullptr) << c.name;
        std::vector<std::string> admitted;
        for (const analysis::Diagnostic &d : adm.diagnostics) {
            if (d.severity == analysis::Severity::Error)
                admitted.push_back(
                    "error " + d.code +
                    (d.path.empty() ? "" : " at " + d.path));
        }
        EXPECT_EQ(admitted, linted) << c.name << ": " << adm.reason;
    }
    EXPECT_TRUE(registry.jobs().empty());
}

#endif // CAMJ_LINT_BIN

// -------------------------------------------------------- the contract

TEST(ServedSweep, StreamedResultsAreByteIdenticalToALocalRun)
{
    const fs::path dir = scratchDir("serve_identity");
    const spec::SweepDocument doc = smallStudy();
    const std::string reference = singleProcessJsonl(doc);

    ServerHarness harness(inProcessOptions(dir));
    serve::Client client(harness.port());
    std::ostringstream out;
    const serve::Client::SubmitOutcome outcome =
        client.submitAndStream(spec::toJson(doc), out);

    EXPECT_EQ(out.str(), reference);
    EXPECT_EQ(outcome.resultLines, doc.grid.points());
    EXPECT_EQ(outcome.end.getString("state", ""), "done");
    EXPECT_EQ(outcome.accepted.getInt("points", 0),
              static_cast<int64_t>(doc.grid.points()));
    // The end frame carries the same summary a batch merge reduces.
    const json::Value *summary = outcome.end.find("summary");
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->getInt("records", 0),
              static_cast<int64_t>(doc.grid.points()));
}

TEST(ServedSweep, KilledWorkerIsRedispatchedAndTheStreamStaysExact)
{
    const fs::path dir = scratchDir("serve_redispatch");
    const spec::SweepDocument doc = smallStudy();
    const std::string reference = singleProcessJsonl(doc);

    serve::SchedulerOptions options = inProcessOptions(dir);
    options.testFailShards = {0}; // shard 0 dies on attempt 1
    ServerHarness harness(std::move(options));
    serve::Client client(harness.port());
    std::ostringstream out;
    const serve::Client::SubmitOutcome outcome =
        client.submitAndStream(spec::toJson(doc), out);

    EXPECT_EQ(out.str(), reference);
    EXPECT_EQ(outcome.end.getString("state", ""), "done");
    EXPECT_GE(outcome.end.getInt("workerRestarts", 0), 1);
}

TEST(ServedSweep, ConcurrentJobsShareOneOutcomeStore)
{
    const fs::path dir = scratchDir("serve_concurrent");
    const spec::SweepDocument doc = smallStudy();
    const std::string reference = singleProcessJsonl(doc);

    serve::SchedulerOptions options = inProcessOptions(dir / "work");
    options.cacheDir = (dir / "cache").string();
    ServerHarness harness(std::move(options));

    std::string streamed[2];
    std::string state[2];
    std::thread clients[2];
    for (int k = 0; k < 2; ++k) {
        clients[k] = std::thread([&, k] {
            serve::Client client(harness.port());
            std::ostringstream out;
            const serve::Client::SubmitOutcome outcome =
                client.submitAndStream(spec::toJson(doc), out);
            streamed[k] = out.str();
            state[k] = outcome.end.getString("state", "");
        });
    }
    for (std::thread &t : clients)
        t.join();
    for (int k = 0; k < 2; ++k) {
        EXPECT_EQ(streamed[k], reference) << "client " << k;
        EXPECT_EQ(state[k], "done") << "client " << k;
    }
}

TEST(ServedSweep, CompletedJobsRestreamFromByteZero)
{
    const fs::path dir = scratchDir("serve_restream");
    const spec::SweepDocument doc = smallStudy();
    const std::string reference = singleProcessJsonl(doc);

    ServerHarness harness(inProcessOptions(dir));
    std::string job_id;
    {
        serve::Client client(harness.port());
        std::ostringstream out;
        job_id = client.submitAndStream(spec::toJson(doc), out).jobId;
        ASSERT_EQ(out.str(), reference);
    }

    // A later attacher on a fresh connection replays the retained
    // spool from byte 0, then the end frame.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(harness.port()));
    ASSERT_EQ(::connect(
                  fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof addr),
              0);
    json::Value frame = serve::makeFrame("stream");
    frame.set("job", job_id);
    ASSERT_TRUE(serve::writeLine(fd, serve::frameLine(frame)));

    serve::LineReader reader(fd);
    std::string replayed;
    json::Value end;
    while (std::optional<std::string> line = reader.next()) {
        if (!serve::isControlFrame(*line)) {
            replayed += *line + "\n";
            continue;
        }
        end = serve::parseFrame(*line);
        break;
    }
    ::close(fd);
    EXPECT_EQ(replayed, reference);
    EXPECT_EQ(end.getString("type", ""), "end");
    EXPECT_EQ(end.getString("state", ""), "done");
}

TEST(ServedSweep, UnknownJobsAnswerAnErrorFrame)
{
    const fs::path dir = scratchDir("serve_unknown");
    ServerHarness harness(inProcessOptions(dir));
    serve::Client client(harness.port());
    try {
        client.status("job-99");
        FAIL() << "unknown job not reported";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown job"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ServedSweep, CancelStopsARunningJobBeforeItFinishes)
{
    const fs::path dir = scratchDir("serve_cancel");
    // Big enough that the job cannot outrun the cancel: 48 rates x 7
    // nodes = 336 points on one single-threaded worker.
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    spec::GridAxis rate{"rate", "fps", {}};
    for (int f = 1; f <= 48; ++f)
        rate.values.push_back(json::Value(static_cast<double>(f)));
    spec::GridAxis node{"node", "memories[ActBuf].nodeNm", {}};
    for (int nm : {180, 130, 110, 90, 65, 45, 32})
        node.values.push_back(json::Value(nm));
    doc.grid.axes = {rate, node};

    serve::JobRegistry registry;
    serve::Scheduler scheduler(inProcessOptions(dir, 1), registry);
    const serve::Scheduler::Admission adm =
        scheduler.submit(spec::toJson(doc));
    ASSERT_NE(adm.job, nullptr);
    adm.job->cancel.cancel();
    scheduler.drain();
    EXPECT_EQ(adm.job->state(), serve::JobState::Cancelled);
    EXPECT_LT(adm.job->pointsDone.load(), doc.grid.points());
    EXPECT_EQ(adm.job->endFrame().getString("state", ""),
              "cancelled");
}

// ------------------------------------------------- subprocess workers

#ifdef CAMJ_SWEEP_BIN

serve::SchedulerOptions
subprocessOptions(const fs::path &work_dir)
{
    serve::SchedulerOptions options = inProcessOptions(work_dir, 2);
    options.subprocessWorkers = true;
    options.sweepBinary = CAMJ_SWEEP_BIN;
    options.heartbeatSeconds = 30.0;
    return options;
}

TEST(ServedSweep, SubprocessWorkersMatchTheLocalRun)
{
    const fs::path dir = scratchDir("serve_subprocess");
    const spec::SweepDocument doc = smallStudy();
    ServerHarness harness(subprocessOptions(dir));
    serve::Client client(harness.port());
    std::ostringstream out;
    const serve::Client::SubmitOutcome outcome =
        client.submitAndStream(spec::toJson(doc), out);
    EXPECT_EQ(out.str(), singleProcessJsonl(doc));
    EXPECT_EQ(outcome.end.getString("state", ""), "done");
}

TEST(ServedSweep, SigkilledSubprocessIsRedispatchedGapFree)
{
    const fs::path dir = scratchDir("serve_subprocess_kill");
    const spec::SweepDocument doc = smallStudy();
    serve::SchedulerOptions options = subprocessOptions(dir);
    options.testFailShards = {1}; // SIGKILL shard 1's first attempt
    ServerHarness harness(std::move(options));
    serve::Client client(harness.port());
    std::ostringstream out;
    const serve::Client::SubmitOutcome outcome =
        client.submitAndStream(spec::toJson(doc), out);
    EXPECT_EQ(out.str(), singleProcessJsonl(doc));
    EXPECT_EQ(outcome.end.getString("state", ""), "done");
    EXPECT_GE(outcome.end.getInt("workerRestarts", 0), 1);
}

#endif // CAMJ_SWEEP_BIN

} // namespace
} // namespace camj
