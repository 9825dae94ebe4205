#include "explore/sink.h"

#include <algorithm>

#include "common/logging.h"
#include "core/report.h"
#include "spec/json.h"

namespace camj
{

// -------------------------------------------------------- CollectSink

bool
CollectSink::accept(SweepResult result)
{
    results_.push_back(std::move(result));
    return true;
}

void
CollectSink::finish()
{
    std::sort(results_.begin(), results_.end(),
              [](const SweepResult &a, const SweepResult &b) {
                  return a.index < b.index;
              });
}

// ------------------------------------------------------- CallbackSink

CallbackSink::CallbackSink(Callback on_result, Finisher on_finish)
    : onResult_(std::move(on_result)), onFinish_(std::move(on_finish))
{
    if (!onResult_)
        fatal("CallbackSink: null result callback");
}

bool
CallbackSink::accept(SweepResult result)
{
    return onResult_(std::move(result));
}

void
CallbackSink::finish()
{
    if (onFinish_)
        onFinish_();
}

// -------------------------------------------------------- InOrderSink

bool
InOrderSink::accept(SweepResult result)
{
    if (result.index != nextIndex_) {
        pending_.emplace(result.index, std::move(result));
        return true;
    }
    if (!inner_.accept(std::move(result)))
        return false;
    ++nextIndex_;
    // Flush any consecutive run the early completion unblocked.
    auto it = pending_.begin();
    while (it != pending_.end() && it->first == nextIndex_) {
        if (!inner_.accept(std::move(it->second)))
            return false;
        pending_.erase(it);
        it = pending_.begin();
        ++nextIndex_;
    }
    return true;
}

void
InOrderSink::finish()
{
    // A cancelled sweep can leave gaps; what's buffered past the gap
    // is dropped so the inner sink only ever sees a strict prefix.
    pending_.clear();
    inner_.finish();
}

// -------------------------------------------------------- ReindexSink

ReindexSink::ReindexSink(ResultSink &inner, Mapper map)
    : inner_(inner), map_(std::move(map))
{
    if (!map_)
        fatal("ReindexSink: null index mapper");
}

bool
ReindexSink::accept(SweepResult result)
{
    result.index = map_(result.index);
    return inner_.accept(std::move(result));
}

// ----------------------------------------------------------- TopKSink

TopKSink::TopKSink(size_t k)
    : k_(k)
{
    if (k_ < 1)
        fatal("TopKSink: k must be >= 1");
}

bool
TopKSink::accept(SweepResult result)
{
    if (!result.feasible) {
        ++dropped_;
        return true;
    }
    const Energy e = result.totalEnergy();
    auto pos = std::upper_bound(
        best_.begin(), best_.end(), e,
        [](Energy lhs, const SweepResult &rhs) {
            return lhs < rhs.totalEnergy();
        });
    if (best_.size() >= k_ && pos == best_.end()) {
        ++dropped_;
        return true;
    }
    best_.insert(pos, std::move(result));
    if (best_.size() > k_) {
        best_.pop_back();
        ++dropped_;
    }
    return true;
}

void
TopKSink::finish()
{
}

// ---------------------------------------------------------- JsonlSink

std::string
sweepResultToJsonl(const SweepResult &result)
{
    json::Value o = json::Value::makeObject();
    o.set("index", json::Value(static_cast<int64_t>(result.index)));
    o.set("design", json::Value(result.designName));
    o.set("feasible", json::Value(result.feasible));
    if (!result.feasible) {
        o.set("error", json::Value(result.error));
        if (!result.ruleCode.empty())
            o.set("ruleCode", json::Value(result.ruleCode));
        return o.dump(0);
    }
    o.set("frames", json::Value(result.frames));
    o.set("frameEnergy", json::Value(result.report.total()));
    o.set("totalEnergy", json::Value(result.totalEnergy()));
    json::Value categories = json::Value::makeObject();
    for (EnergyCategory cat : allEnergyCategories())
        categories.set(energyCategoryName(cat),
                       json::Value(result.report.category(cat)));
    o.set("categories", std::move(categories));
    if (result.snrPenaltyDb != 0.0)
        o.set("snrPenaltyDb", json::Value(result.snrPenaltyDb));
    return o.dump(0);
}

bool
JsonlSink::accept(SweepResult result)
{
    out_ << sweepResultToJsonl(result) << "\n";
    out_.flush();
    if (!out_)
        fatal("JsonlSink: write failed after %zu line(s)", written_);
    ++written_;
    return true;
}

} // namespace camj
