/**
 * @file
 * DesignSpec: a fully serializable, value-type description of one
 * computational-CIS design point — the three decoupled descriptions
 * of Sec. 3.3 (algorithm DAG, hardware, mapping) as plain data.
 *
 * Where the Design class is an imperative object assembled through
 * mutating setters, a DesignSpec is a document: it can be loaded from
 * and saved to JSON (camj::spec::fromJson / toJson), diffed, swept,
 * and shipped between processes. materialize() lowers a spec onto the
 * existing Design engine, which becomes a thin internal layer under
 * this front-end.
 *
 * Analog components are described by *kind* plus the corresponding
 * factory parameter struct (the Table 1 component library), so a spec
 * stays declarative without serializing cell-level netlists. Designs
 * outside the library (the paper's chip reconstructions use
 * current-domain MACs, winner-take-all pools, in-pixel multipliers)
 * use ComponentKind::Custom, which serializes the Sec. 4.2 cell chain
 * itself: an ordered list of dynamic / static-biased / non-linear
 * cells with their electrical parameters.
 */

#ifndef CAMJ_SPEC_SPEC_H
#define CAMJ_SPEC_SPEC_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/design.h"
#include "spec/json.h"

namespace camj::spec
{

// ------------------------------------------------------------ algorithm

/** One algorithm stage plus its producer edges (operand order). */
struct StageSpec
{
    StageParams params;
    /** Names of producer stages, in operand order. */
    std::vector<std::string> inputs;
};

// ----------------------------------------------------- analog hardware

/** Component kinds of the Table 1 analog library. */
enum class ComponentKind
{
    Aps4T,
    Aps3T,
    Dps,
    PwmPixel,
    DvsPixel,
    ColumnAdc,
    SwitchedCapMac,
    ChargeAdder,
    Scaler,
    AbsUnit,
    MaxUnit,
    Comparator,
    LogUnit,
    PassiveAnalogMemory,
    ActiveAnalogMemory,
    ChargeToVoltage,
    CurrentToVoltage,
    TimeToVoltage,
    SampleHold,
    /** An explicit Sec. 4.2 cell chain (see CustomComponentSpec). */
    Custom,
};

/** Kind <-> stable JSON token ("aps4t", "column-adc", ...). */
const char *componentKindName(ComponentKind kind);
ComponentKind componentKindFromName(const std::string &name);

// ---------------------------------------------- custom cell chains

/** The three A-Cell energy classes of Sec. 4.2. */
enum class CellClass
{
    /** Eq. 5 charge/discharge energy (DynamicCell). */
    Dynamic,
    /** Eq. 7-10 bias-current energy (StaticBiasedCell). */
    StaticBias,
    /** Eq. 12 Walden-FoM energy (NonLinearCell). */
    NonLinear,
};

const char *cellClassName(CellClass cls);
CellClass cellClassFromName(const std::string &name);

const char *timingScopeName(TimingScope scope);
TimingScope timingScopeFromName(const std::string &name);

const char *biasModeName(BiasMode mode);
BiasMode biasModeFromName(const std::string &name);

SignalDomain signalDomainFromName(const std::string &name);

/** One cell on a custom component's critical path. */
struct CellSpec
{
    CellClass cls = CellClass::Dynamic;
    std::string name;
    /** Capacitance nodes (Dynamic). */
    std::vector<CapNode> caps;
    /** Bias parameters (StaticBias). */
    StaticBiasParams bias;
    /** Resolution (NonLinear); a comparator is 1 bit. */
    int bits = 1;
    /** Per-conversion energy override (NonLinear); 0 = FoM survey. */
    Energy energyOverride = 0.0;
    /** Spatial replication inside the component. */
    int spatial = 1;
    /** Temporal uses per component operation. */
    int temporal = 1;
    TimingScope scope = TimingScope::SelfSlot;

    /** Build the A-Cell. @throws ConfigError. */
    std::shared_ptr<const ACell> instantiate() const;
};

/**
 * A component outside the Table 1 library, declared as the ordered
 * cell chain the signal flows through — the serializable equivalent
 * of assembling an AComponent by hand.
 */
struct CustomComponentSpec
{
    std::string name;
    SignalDomain input = SignalDomain::Voltage;
    SignalDomain output = SignalDomain::Voltage;
    std::vector<CellSpec> cells;
};

/**
 * A declarative analog component: a library kind plus the parameter
 * struct that kind's factory consumes. Only the parameters relevant
 * to the kind are serialized.
 */
struct ComponentSpec
{
    ComponentKind kind = ComponentKind::Aps4T;
    /** Pixel kinds (Aps4T/Aps3T/Dps/PwmPixel/DvsPixel). */
    ApsParams aps;
    /** ColumnAdc and the Dps in-pixel converter. */
    AdcParams adc;
    /** Switched-capacitor compute kinds. */
    SwitchedCapParams sc;
    /** Analog memory kinds. */
    AnalogMemoryParams analogMem;
    /** Domain converters and sample-hold. */
    ConverterParams conv;
    /** MaxUnit fan-in. */
    int maxInputs = 2;
    /** Comparator per-decision energy override (0 = FoM survey). */
    Energy comparatorEnergyOverride = 0.0;
    /** LogUnit load capacitance [F]. */
    Capacitance logLoadCap = 50e-15;
    /** LogUnit analog supply [V]. */
    Voltage logVdda = 2.5;
    /** Explicit cell chain (kind == Custom). */
    CustomComponentSpec custom;

    /** Instantiate the library component. @throws ConfigError. */
    AComponent instantiate() const;
};

/** One analog array of the chain (insertion order = pipeline order). */
struct AnalogArraySpec
{
    std::string name;
    Layer layer = Layer::Sensor;
    AnalogRole role = AnalogRole::Sensing;
    Shape numComponents = {1, 1, 1};
    Shape inputShape = {1, 1, 1};
    Shape outputShape = {1, 1, 1};
    Area componentArea = 0.0;
    ComponentSpec component;
};

// ---------------------------------------------------- digital hardware

/** Where a digital memory's electrical numbers come from. */
enum class MemoryModel
{
    /** All electrical parameters spelled out in the spec. */
    Explicit,
    /** Derived from the analytical SRAM model at `node_nm`. */
    Sram,
    /** Derived from the analytical STT-RAM model at `node_nm`. */
    Sttram,
    /** Derived from the flip-flop register-file model at `node_nm`
     *  (PE-local scratch storage; capacity limited to 4 KB). */
    Regfile,
};

const char *memoryModelName(MemoryModel model);
MemoryModel memoryModelFromName(const std::string &name);

/** One digital memory. */
struct MemorySpec
{
    std::string name;
    Layer layer = Layer::Sensor;
    MemoryKind kind = MemoryKind::Fifo;
    MemoryModel model = MemoryModel::Sram;
    int64_t capacityWords = 0;
    int wordBits = 8;
    /** Process node for the Sram/Sttram models [nm]. */
    int nodeNm = 65;
    double activeFraction = 1.0;
    // Explicit-model electricals (ignored by Sram/Sttram).
    Energy readEnergyPerWord = 0.0;
    Energy writeEnergyPerWord = 0.0;
    Power leakagePower = 0.0;
    int readPorts = 1;
    int writePorts = 1;
    Area area = 0.0;

    /** Build the DigitalMemory. @throws ConfigError. */
    DigitalMemory instantiate() const;
};

/** Digital execution-unit kinds. */
enum class UnitKind
{
    Pipeline,
    Systolic,
};

/**
 * One digital execution unit plus its buffer wiring. A single vector
 * of these preserves the registration order of mixed pipeline/systolic
 * designs (the engine's unit order is observable in reports).
 */
struct UnitSpec
{
    UnitKind kind = UnitKind::Pipeline;
    /** Pipeline parameters (kind == Pipeline). */
    ComputeUnitParams pipeline;
    /** Systolic parameters (kind == Systolic). */
    SystolicArrayParams systolic;
    /** Input memories in port order. */
    std::vector<std::string> inputMemories;
    /** Output memories. */
    std::vector<std::string> outputMemories;

    const std::string &name() const;
};

// --------------------------------------------------------- design spec

/** Optional point-to-point link config. */
struct CommSpec
{
    bool present = false;
    /** Energy per byte [J/B]; 0 = the surveyed default. */
    Energy energyPerByte = 0.0;
};

/** A complete, serializable design point. */
struct DesignSpec
{
    std::string name;
    double fps = 30.0;
    Frequency digitalClock = 50e6;

    std::vector<StageSpec> stages;
    std::vector<AnalogArraySpec> analogArrays;
    std::vector<MemorySpec> memories;
    std::vector<UnitSpec> units;

    /** Memory receiving the ADC output ("" = none). */
    std::string adcOutputMemory;
    CommSpec mipi;
    CommSpec tsv;
    /** Final-output data-volume override [B]; -1 = derived. */
    int64_t pipelineOutputBytes = -1;

    /** Stage-name -> hardware-name pairs. */
    std::vector<std::pair<std::string, std::string>> mapping;

    /**
     * Structural validation without building anything: unique names,
     * edge/wiring references resolve, mapping targets exist. The
     * deeper physics checks still run inside simulate().
     *
     * @throws ConfigError describing the first violation.
     */
    void validate() const;

    /**
     * Lower onto the imperative Design engine.
     *
     * @throws ConfigError on any invalid parameter or reference.
     */
    Design materialize() const;
};

// ---------------------------------------------------------- diagnostics

/** Comma-join names for error messages; "<none>" when empty. Shared
 *  by every "references unknown X (registered: ...)" diagnostic. */
std::string joinNames(const std::vector<std::string> &names);

// -------------------------------------------------------- serialization

/** Spec -> JSON value tree (the document toJson() renders). */
json::Value toJsonValue(const DesignSpec &spec);

/** Spec -> pretty-printed JSON document. */
std::string toJson(const DesignSpec &spec);

/**
 * Parsed JSON document -> spec. The tree-level twin of fromJson();
 * grid expansion uses it to avoid re-parsing text per design point.
 *
 * @throws ConfigError on unknown enum tokens or missing members.
 */
DesignSpec fromJsonValue(const json::Value &doc);

/**
 * JSON document -> spec.
 *
 * @throws ConfigError on syntax errors, unknown enum tokens, or
 *         missing required members.
 */
DesignSpec fromJson(const std::string &text);

/** Load a spec from a JSON file. @throws ConfigError on I/O errors. */
DesignSpec loadSpecFile(const std::string &path);

/** Save a spec as JSON. @throws ConfigError on I/O errors. */
void saveSpecFile(const DesignSpec &spec, const std::string &path);

} // namespace camj::spec

#endif // CAMJ_SPEC_SPEC_H
