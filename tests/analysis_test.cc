/**
 * @file
 * Tests for the static spec analyzer: the golden corpus lints clean,
 * every rule fires with its exact code and field path on an injected
 * defect, the simulator throws a code the analyzer found for the same
 * defect, RuleCode and docs/lint_rules.md list the same catalogue,
 * and the grid prefilter never prunes a point full simulation would
 * have found feasible.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/grid_analyzer.h"
#include "common/logging.h"
#include "explore/simulator.h"
#include "spec/grid.h"
#include "spec/samples.h"
#include "spec/spec.h"

namespace camj
{
namespace
{

namespace fs = std::filesystem;
using analysis::Diagnostic;
using analysis::GridAnalysis;
using analysis::GridAnalyzer;
using analysis::Severity;
using analysis::SpecAnalyzer;

class QuietLogging : public ::testing::Environment
{
  public:
    void SetUp() override { setLoggingEnabled(false); }
};

::testing::Environment *const quiet_env =
    ::testing::AddGlobalTestEnvironment(new QuietLogging);

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot read " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** True when a diagnostic with exactly @p code at @p path exists. */
bool
hasDiag(const std::vector<Diagnostic> &diags, const std::string &code,
        const std::string &path)
{
    for (const Diagnostic &d : diags) {
        if (d.code == code && d.path == path)
            return true;
    }
    return false;
}

std::string
dumpDiags(const std::vector<Diagnostic> &diags)
{
    return analysis::formatDiagnostics(diags);
}

std::vector<Diagnostic>
analyze(const spec::DesignSpec &spec)
{
    return SpecAnalyzer().analyze(spec);
}

spec::DesignSpec
detector()
{
    return spec::sampleDetectorSpec(30.0, 65);
}

// ---------------------------------------------------------- golden corpus

TEST(GoldenCorpus, LintsClean)
{
    SpecAnalyzer analyzer;
    size_t corpus = 0;
    for (const auto &entry : fs::directory_iterator(CAMJ_GOLDEN_DIR)) {
        if (entry.path().extension() != ".json" ||
            entry.path().filename() == "energies.json")
            continue;
        ++corpus;
        const json::Value doc =
            json::Value::parse(readFile(entry.path()));
        const std::vector<Diagnostic> diags =
            analyzer.analyzeDocument(doc);
        EXPECT_EQ(analysis::countSeverity(diags, Severity::Error), 0u)
            << entry.path().filename() << ":\n" << dumpDiags(diags);
        // One known, faithful warning: the engine itself warns about
        // the compressive readout's buffered throughput mismatch at
        // simulate time; the lint mirrors it. Everything else must
        // be warning-free.
        for (const Diagnostic &d : diags) {
            if (d.severity != Severity::Warning)
                continue;
            EXPECT_EQ(d.code, "CAMJ-W003")
                << entry.path().filename() << ": " << d.format();
            EXPECT_EQ(entry.path().stem().string(),
                      "jssc21ii-compressive")
                << entry.path().filename() << ": " << d.format();
        }
    }
    EXPECT_EQ(corpus, 27u);
}

TEST(GoldenCorpus, DetectorSweepExampleLintsCleanAndPrunesNothing)
{
    const std::string text =
        readFile(fs::path(CAMJ_EXAMPLES_DIR) / "detector_sweep.json");
    const std::vector<Diagnostic> diags =
        SpecAnalyzer().analyzeDocument(json::Value::parse(text));
    EXPECT_EQ(analysis::countSeverity(diags, Severity::Error), 0u)
        << dumpDiags(diags);
    EXPECT_EQ(analysis::countSeverity(diags, Severity::Warning), 0u)
        << dumpDiags(diags);

    const spec::SweepDocument doc = spec::sweepDocumentFromJson(text);
    const GridAnalysis grid = GridAnalyzer().analyze(doc);
    EXPECT_EQ(grid.totalPoints(), 108u);
    EXPECT_EQ(grid.prunedPoints(), 0u) << grid.summary();
}

TEST(GoldenCorpus, SampleDetectorAnalyzesClean)
{
    const std::vector<Diagnostic> diags = analyze(detector());
    EXPECT_EQ(analysis::countSeverity(diags, Severity::Error), 0u)
        << dumpDiags(diags);
    EXPECT_EQ(analysis::countSeverity(diags, Severity::Warning), 0u)
        << dumpDiags(diags);
}

// ------------------------------------------------------ injected defects

/** One spec defect every error rule must catch: the rule's code, the
 *  field path it reports, and the mutation of the detector spec. */
struct ErrorDefect
{
    const char *code;
    const char *path;
    void (*inject)(spec::DesignSpec &s);
};

const ErrorDefect kErrorDefects[] = {
    {"CAMJ-E001", "fps", [](spec::DesignSpec &s) { s.fps = -1.0; }},
    {"CAMJ-E001", "digitalClock",
     [](spec::DesignSpec &s) { s.digitalClock = 0.0; }},
    {"CAMJ-E001", "name", [](spec::DesignSpec &s) { s.name.clear(); }},
    {"CAMJ-E002", "memories[ActBuf]",
     [](spec::DesignSpec &s) { s.memories.push_back(s.memories[0]); }},
    {"CAMJ-E002", "stages[Bin]", // now two stages named Bin
     [](spec::DesignSpec &s) { s.stages[2].params.name = "Bin"; }},
    {"CAMJ-E003", "units[Classifier].inputMemories[0]",
     [](spec::DesignSpec &s) { s.units[0].inputMemories[0] = "ActBfu"; }},
    {"CAMJ-E003", "adcOutputMemory",
     [](spec::DesignSpec &s) { s.adcOutputMemory = "Nope"; }},
    {"CAMJ-E003", "mapping[2].hw",
     [](spec::DesignSpec &s) { s.mapping[2].second = "Classifierz"; }},
    {"CAMJ-E004", "stages[Bin].inputs", // Binning is unary
     [](spec::DesignSpec &s) { s.stages[1].inputs.push_back("Conv"); }},
    {"CAMJ-E005", "stages[Bin]", // breaks the stencil
     [](spec::DesignSpec &s) {
         s.stages[1].params.outputSize = {81, 60, 1};
     }},
    {"CAMJ-E006", "stages[Conv].inputSize",
     [](spec::DesignSpec &s) {
         // A self-consistent Conv whose input no longer matches Bin's
         // output: the stage is valid, the edge is not.
         s.stages[2].params.inputSize = {40, 30, 1};
         s.stages[2].params.outputSize = {38, 28, 8};
     }},
    {"CAMJ-E007", "stages[Bin].inputs[0]",
     [](spec::DesignSpec &s) { s.stages[1].inputs = {"Bin"}; }},
    {"CAMJ-E007", "stages", // Bin <-> Conv cycle
     [](spec::DesignSpec &s) { s.stages[1].inputs = {"Conv"}; }},
    {"CAMJ-E007", "stages", [](spec::DesignSpec &s) { s.stages.clear(); }},
    {"CAMJ-E008", "mapping", // Classify unmapped
     [](spec::DesignSpec &s) { s.mapping.pop_back(); }},
    {"CAMJ-E008", "mapping[1].hw", // Binning on a systolic array
     [](spec::DesignSpec &s) { s.mapping[1].second = "Classifier"; }},
    {"CAMJ-E008", "mapping[1].hw", // non-Input stage on a memory
     [](spec::DesignSpec &s) { s.mapping[1].second = "ActBuf"; }},
    {"CAMJ-E009", "analogArrays",
     [](spec::DesignSpec &s) { s.analogArrays.clear(); }},
    {"CAMJ-E010", "analogArrays[Adc].component",
     [](spec::DesignSpec &s) {
         // Voltage-output pixel array feeding an Optical-input
         // component, and no ADC before the digital side.
         s.analogArrays[1].component.kind = spec::ComponentKind::Aps4T;
     }},
    {"CAMJ-E011", "analogArrays[Adc].inputShape",
     [](spec::DesignSpec &s) {
         // A throughput step-down into a non-voltage consumer.
         s.analogArrays[0].component.kind = spec::ComponentKind::PwmPixel;
         s.analogArrays[1].component.kind =
             spec::ComponentKind::TimeToVoltage;
         s.analogArrays[1].inputShape = {1, 40, 1};
     }},
    {"CAMJ-E012", "adcOutputMemory",
     [](spec::DesignSpec &s) { s.adcOutputMemory.clear(); }},
    {"CAMJ-E012", "units[Classifier].inputMemories",
     [](spec::DesignSpec &s) { s.units[0].inputMemories.clear(); }},
    {"CAMJ-E013", "memories[ActBuf].nodeNm",
     [](spec::DesignSpec &s) { s.memories[0].nodeNm = 254; }},
    {"CAMJ-E013", "memories[ActBuf].activeFraction",
     [](spec::DesignSpec &s) { s.memories[0].activeFraction = 1.5; }},
    {"CAMJ-E013", "memories[ActBuf].capacityWords",
     [](spec::DesignSpec &s) { s.memories[0].capacityWords = 0; }},
    {"CAMJ-E014", "analogArrays[Adc].component.adc.bits",
     [](spec::DesignSpec &s) { s.analogArrays[1].component.adc.bits = 20; }},
    {"CAMJ-E014",
     "analogArrays[PixelArray].component.aps.pixelsPerComponent",
     [](spec::DesignSpec &s) {
         s.analogArrays[0].component.aps.pixelsPerComponent = 0;
     }},
    {"CAMJ-E014", "analogArrays[PixelArray].component.custom.cells",
     [](spec::DesignSpec &s) {
         // A custom pixel component with an empty cell chain.
         spec::ComponentSpec &c = s.analogArrays[0].component;
         c.kind = spec::ComponentKind::Custom;
         c.custom.name = "BarePixel";
         c.custom.input = SignalDomain::Optical;
         c.custom.output = SignalDomain::Voltage;
     }},
    {"CAMJ-E015", "analogArrays[Adc].component",
     [](spec::DesignSpec &s) {
         // The column ADC has no energy override, so its per-cell
         // rate lower bound (60 accesses x 3 slots x fps = 1.8e12
         // S/s) is FoM-surveyed, past the survey's 1e12 S/s edge.
         s.fps = 1e10;
     }},
    {"CAMJ-E016", "mipi", // 4 output bytes must leave the package
     [](spec::DesignSpec &s) { s.mipi.present = false; }},
    {"CAMJ-E017", "units[Classifier].rows",
     [](spec::DesignSpec &s) { s.units[0].systolic.rows = 0; }},
    {"CAMJ-E017", "units[Classifier].clock",
     [](spec::DesignSpec &s) { s.units[0].systolic.clock = 0.0; }},
};

TEST(InjectedDefect, EveryErrorRuleFiresAtItsPath)
{
    for (const ErrorDefect &d : kErrorDefects) {
        spec::DesignSpec s = detector();
        d.inject(s);
        EXPECT_TRUE(hasDiag(analyze(s), d.code, d.path))
            << d.code << " at " << d.path << ":\n"
            << dumpDiags(analyze(s));
    }
}

TEST(InjectedDefect, BufferedThroughputMismatchWarns)
{
    // Narrowing the ADC's input: a voltage consumer buffers the
    // mismatch (warning; the unbuffered case is E011 above).
    spec::DesignSpec s = detector();
    s.analogArrays[1].inputShape = {1, 40, 1};
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-W003",
                        "analogArrays[Adc].inputShape"));
}

TEST(InjectedDefect, AdcRateNearSurveyEdgeWarns)
{
    // Rate bound 1.8e11 S/s: inside the survey's extrapolation, past
    // 1e11 (the E015 fixture goes past its 1e12 S/s edge).
    spec::DesignSpec s = detector();
    s.fps = 1e9;
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-W004",
                        "analogArrays[Adc].component"));
}

TEST(InjectedDefect, DeadComponents)
{
    spec::DesignSpec s = detector();
    spec::MemorySpec spare;
    spare.name = "Spare";
    spare.capacityWords = 1024;
    spare.wordBits = 64;
    spare.nodeNm = 65;
    s.memories.push_back(spare);
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-W001", "memories[Spare]"));

    s = detector();
    spec::UnitSpec idle;
    idle.kind = spec::UnitKind::Systolic;
    idle.systolic.name = "Idle";
    idle.systolic.rows = 4;
    idle.systolic.cols = 4;
    idle.inputMemories = {"ActBuf"};
    s.units.push_back(idle);
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-W001", "units[Idle]"));
}

TEST(InjectedDefect, SuspiciousMagnitudes)
{
    spec::DesignSpec s = detector();
    s.digitalClock = 5e10;
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-W002", "digitalClock"));
    s = detector();
    s.units[0].systolic.energyPerMac = 1e-6;
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-W002",
                        "units[Classifier].energyPerMac"));
}

TEST(InjectedDefect, ResidentInputFootprint)
{
    // Map the Input stage into ActBuf and shrink the buffer below
    // one 320x240x8b frame: residency info plus footprint warning.
    spec::DesignSpec s = detector();
    s.mapping[0].second = "ActBuf";
    s.memories[0].capacityWords = 1024; // 65536 b < 614400 b
    const std::vector<Diagnostic> diags = analyze(s);
    EXPECT_TRUE(hasDiag(diags, "CAMJ-I001", "mapping[0].hw"))
        << dumpDiags(diags);
    EXPECT_TRUE(hasDiag(diags, "CAMJ-W007",
                        "memories[ActBuf].capacityWords"))
        << dumpDiags(diags);
}

TEST(InjectedDefect, UnusedCommInterface)
{
    spec::DesignSpec s = detector();
    s.tsv.present = true; // single-layer design: nothing crosses
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-I002", "tsv"));
}

// ----------------------------------------------------------- key lint

TEST(KeyLint, UnknownKeyGetsDidYouMean)
{
    json::Value doc = spec::toJsonValue(detector());
    doc.set("fpss", json::Value(60.0));
    const std::vector<Diagnostic> diags =
        analysis::lintDocumentKeys(doc);
    ASSERT_TRUE(hasDiag(diags, "CAMJ-W005", "fpss"))
        << dumpDiags(diags);
    for (const Diagnostic &d : diags) {
        if (d.code == "CAMJ-W005" && d.path == "fpss")
            EXPECT_EQ(d.hint, "did you mean 'fps'?");
    }
}

TEST(KeyLint, DeprecatedKeyNamesReplacement)
{
    json::Value doc = spec::toJsonValue(detector());
    doc.set("frame_rate", json::Value(60.0));
    const std::vector<Diagnostic> diags =
        analysis::lintDocumentKeys(doc);
    ASSERT_TRUE(hasDiag(diags, "CAMJ-W006", "frame_rate"))
        << dumpDiags(diags);
}

TEST(KeyLint, NestedUnknownKeyCarriesElementPath)
{
    json::Value doc = spec::toJsonValue(detector());
    json::Value &mem =
        doc.find("memories")->mutableArray()[0];
    mem.set("nodeNM", json::Value(65));
    const std::vector<Diagnostic> diags =
        analysis::lintDocumentKeys(doc);
    EXPECT_TRUE(
        hasDiag(diags, "CAMJ-W005", "memories[ActBuf].nodeNM"))
        << dumpDiags(diags);
}

TEST(KeyLint, CleanDocumentHasNoFindings)
{
    const std::vector<Diagnostic> diags =
        analysis::lintDocumentKeys(spec::toJsonValue(detector()));
    EXPECT_TRUE(diags.empty()) << dumpDiags(diags);
}

// --------------------------------------------------------- rule codes

TEST(RuleCodes, SimulatorThrowsAnErrorTheAnalyzerFound)
{
    // The code a failing check throws with is one of the analyzer's
    // errors for the same spec, for every error fixture above.
    SimulationOptions options;
    options.checkMode = CheckMode::Report;
    const Simulator sim(options);
    for (const ErrorDefect &d : kErrorDefects) {
        spec::DesignSpec s = detector();
        d.inject(s);
        const SimulationOutcome out = sim.run(s);
        ASSERT_FALSE(out.feasible) << d.code << " at " << d.path;
        if (std::string(d.code) == "CAMJ-E015") {
            // The one pinned exception: at fps = 1e10 the frame
            // budget fails (D002) before the pipeline reaches the ADC
            // survey lookup that would throw E015.
            EXPECT_EQ(out.ruleCode, "CAMJ-D002") << out.error;
            continue;
        }
        std::vector<std::string> static_codes;
        for (const Diagnostic &diag : analyze(s)) {
            if (diag.severity == Severity::Error)
                static_codes.push_back(diag.code);
        }
        EXPECT_NE(std::find(static_codes.begin(), static_codes.end(),
                            out.ruleCode),
                  static_codes.end())
            << d.code << " at " << d.path << ": simulation threw "
            << out.ruleCode << " (" << out.error << ")\n"
            << dumpDiags(analyze(s));
    }
}

TEST(RuleCodes, InfeasibleOutcomeCarriesRuleCode)
{
    spec::DesignSpec s = detector();
    s.mapping.pop_back();
    SimulationOptions options;
    options.checkMode = CheckMode::Report;
    const SimulationOutcome out = Simulator(options).run(s);
    EXPECT_FALSE(out.feasible);
    EXPECT_EQ(out.ruleCode, "CAMJ-E008") << out.error;
}

TEST(RuleCodes, MalformedDocumentsAreE018)
{
    try {
        json::Value::parse("{\"name\": ");
        ADD_FAILURE() << "truncated JSON must not parse";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.code(), RuleCode::E018) << e.what();
    }

    const json::Value base = spec::toJsonValue(detector());
    std::vector<json::Value> docs(3, base);
    docs[0].set("fps", json::Value("fast"));
    docs[1].find("stages")->mutableArray()[1].set("op",
                                                  json::Value("blur"));
    docs[2].set("camjSpecVersion", json::Value(99));
    for (const json::Value &doc : docs) {
        const std::vector<Diagnostic> diags =
            SpecAnalyzer().analyzeDocument(doc);
        ASSERT_EQ(diags.size(), 1u) << dumpDiags(diags);
        EXPECT_EQ(diags[0].code, "CAMJ-E018") << dumpDiags(diags);
        EXPECT_EQ(diags[0].severity, Severity::Error);
    }
}

TEST(RuleCodes, DanglingAxisPathIsE003AtTheAxis)
{
    spec::SweepDocument doc = spec::sweepDocumentFromJson(
        readFile(fs::path(CAMJ_EXAMPLES_DIR) / "detector_sweep.json"));
    EXPECT_TRUE(analysis::checkAxisPaths(doc).empty());
    doc.grid.axes[0].path = "memories[Nope].nodeNm";
    const std::vector<Diagnostic> diags = analysis::checkAxisPaths(doc);
    ASSERT_EQ(diags.size(), 1u) << dumpDiags(diags);
    EXPECT_TRUE(hasDiag(diags, "CAMJ-E003", "sweepGrid.axes[0].path"))
        << dumpDiags(diags);
    // Opening the sweep fails with the same code.
    try {
        doc.source();
        ADD_FAILURE() << "a dangling axis path must not open";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.code(), RuleCode::E003) << e.what();
    }
}

TEST(RuleCodes, CatalogueDocumentsEveryCode)
{
    // docs/lint_rules.md and RuleCode list exactly the same codes.
    const std::string doc =
        readFile(fs::path(CAMJ_DOCS_DIR) / "lint_rules.md");
    std::set<std::string> documented;
    const std::regex code_re("CAMJ-[EWID][0-9]{3}");
    for (auto it = std::sregex_iterator(doc.begin(), doc.end(), code_re);
         it != std::sregex_iterator(); ++it)
        documented.insert(it->str());
    std::set<std::string> declared;
    for (size_t i = 0; i < kRuleCodeCount; ++i) {
        const auto code = static_cast<RuleCode>(i);
        declared.insert(ruleCodeName(code));
        EXPECT_EQ(ruleCodeFromName(ruleCodeName(code)), code);
    }
    EXPECT_EQ(documented, declared);
    EXPECT_FALSE(ruleCodeFromName("CAMJ-E999").has_value());
}

// -------------------------------------------------------- grid analysis

/** The canonical detector study widened with provably infeasible
 *  axis values (one per axis family the grid rules cover). */
spec::SweepDocument
widenedStudy()
{
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.grid.axes = {
        {"rate", "fps",
         {json::Value(30.0), json::Value(960.0), json::Value(-5.0)}},
        {"bufnode", "memories[ActBuf].nodeNm",
         {json::Value(65), json::Value(254)}},
        {"duty", "memories[ActBuf].activeFraction",
         {json::Value(0.5), json::Value(1.5)}},
    };
    return doc;
}

TEST(GridAnalysis, DoomsExactlyTheProvablyInfeasibleValues)
{
    const GridAnalysis result = GridAnalyzer().analyze(widenedStudy());
    EXPECT_EQ(result.totalPoints(), 12u);
    // fps=-5 dooms 4 points, nodeNm=254 dooms 6, duty=1.5 dooms 6;
    // only the 2 all-good combinations survive.
    EXPECT_EQ(result.prunedPoints(), 10u) << result.summary();
    for (size_t i = 0; i < result.totalPoints(); ++i) {
        if (result.doomed(i))
            EXPECT_FALSE(result.justification(i).empty())
                << "doomed point " << i << " without justification";
    }
}

/** The point-list form of a grid: one good point and two doomed. */
spec::SweepDocument
pointListStudy()
{
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.grid.axes = {{"rate", "fps", {}},
                     {"bufnode", "memories[ActBuf].nodeNm", {}}};
    doc.grid.pointList = {
        {json::Value(30.0), json::Value(65)},
        {json::Value(60.0), json::Value(254)},
        {json::Value(-1.0), json::Value(65)},
    };
    return doc;
}

TEST(GridAnalysis, NeverPrunesAFeasiblePoint)
{
    SimulationOptions options;
    options.checkMode = CheckMode::Report;
    const Simulator sim(options);
    for (const spec::SweepDocument &doc :
         {widenedStudy(), pointListStudy()}) {
        const GridAnalysis result = GridAnalyzer().analyze(doc);
        EXPECT_GT(result.prunedPoints(), 0u);
        spec::GridSpecSource grid = doc.source();
        for (size_t i = 0; i < grid.totalPoints(); ++i) {
            if (!result.doomed(i))
                continue;
            const SimulationOutcome out = sim.run(grid.at(i));
            EXPECT_FALSE(out.feasible)
                << (doc.grid.pointList.empty() ? "cartesian"
                                               : "point-list")
                << " grid point " << i
                << " pruned but simulates feasibly:\n"
                << analysis::formatDiagnostics(result.justification(i));
        }
    }
}

TEST(GridAnalysis, PointListModeEvaluatesEachPoint)
{
    const GridAnalysis result = GridAnalyzer().analyze(pointListStudy());
    EXPECT_EQ(result.totalPoints(), 3u);
    EXPECT_FALSE(result.doomed(0));
    EXPECT_TRUE(result.doomed(1));
    EXPECT_TRUE(result.doomed(2));
    EXPECT_EQ(result.prunedPoints(), 2u);
}

TEST(GridAnalysis, CanonicalStudyPassesThroughUntouched)
{
    const GridAnalysis result =
        GridAnalyzer().analyze(spec::sampleDetectorStudy());
    EXPECT_EQ(result.totalPoints(), 108u);
    EXPECT_EQ(result.prunedPoints(), 0u) << result.summary();
    for (size_t i = 0; i < result.totalPoints(); ++i) {
        EXPECT_FALSE(result.doomed(i)) << "point " << i;
        EXPECT_TRUE(result.justification(i).empty()) << "point " << i;
    }
}

// ------------------------------------------------------------ formatting

TEST(Diagnostic, FormatsLikeACompiler)
{
    const Diagnostic d = analysis::makeError(
        "CAMJ-E003", "units[X].inputMemories[0]", "unknown memory",
        "check the spelling");
    EXPECT_EQ(d.format(),
              "error CAMJ-E003 at units[X].inputMemories[0]: unknown "
              "memory (hint: check the spelling)");
    const Diagnostic bare =
        analysis::makeWarning("CAMJ-W002", "", "odd");
    EXPECT_EQ(bare.format(), "warning CAMJ-W002: odd");
}

} // namespace
} // namespace camj
