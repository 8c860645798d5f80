#include "workload/benchmark.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace cminer::workload {

using cminer::pmu::EventCatalog;
using cminer::pmu::EventCategory;
using cminer::pmu::EventId;
using cminer::pmu::TrueTrace;
using cminer::util::Rng;

double
effectShapeValue(EffectShape shape, double x)
{
    double g = x;
    switch (shape) {
      case EffectShape::Linear:
        g = x;
        break;
      case EffectShape::Quadratic:
        g = x + 0.5 * x * x;
        break;
      case EffectShape::Softplus:
        // Scaled so the local slope at x = 0 is 1, like the other shapes.
        g = 2.0 * (std::log1p(std::exp(std::min(x, 30.0))) -
                   std::log(2.0));
        break;
      case EffectShape::Cubic:
        g = x + 0.25 * x * x * x;
        break;
    }
    // Keep pathological latent excursions from collapsing IPC to zero.
    return std::clamp(g, -3.0, 3.0);
}

SyntheticBenchmark::SyntheticBenchmark(BenchmarkSpec spec,
                                       const EventCatalog &catalog)
    : spec_(std::move(spec)), catalog_(catalog)
{
    if (spec_.name.empty())
        util::fatal("workload: benchmark needs a name");
    if (spec_.phases.empty()) {
        // Default three-phase structure: startup, steady, teardown.
        spec_.phases = {
            {"startup", 0.12, {{EventCategory::Frontend, 1.8}}},
            {"steady", 0.76, {}},
            {"teardown", 0.12, {{EventCategory::Memory, 1.3}}},
        };
    }
    resolveStructure();
}

void
SyntheticBenchmark::resolveStructure()
{
    gen_.assign(catalog_.size(), EventGen{});
    for (EventId id = 0; id < catalog_.size(); ++id) {
        const auto &info = catalog_.info(id);
        if (info.family == cminer::pmu::DistFamily::LongTail) {
            gen_[id].spikeProb = 0.12;
            gen_[id].spikeScale = 0.30;
        }
    }

    // Planted (top-ranked) effects.
    for (const auto &effect : spec_.effects) {
        const EventId id = catalog_.idOfAbbrev(effect.abbrev);
        gen_[id].weight = effect.weight / 100.0;
        gen_[id].shape = effect.shape;
        gen_[id].sigma = 0.30;
    }

    // Background weights: many events matter a little. Deterministic per
    // benchmark via the structure seed, independent of run RNGs.
    Rng structure_rng(spec_.structureSeed ^ 0x5bd1e995u);
    std::vector<EventId> candidates;
    for (EventId id : catalog_.programmableEvents()) {
        if (gen_[id].weight == 0.0)
            candidates.push_back(id);
    }
    const std::size_t background =
        std::min(spec_.backgroundEvents, candidates.size());
    const auto picked =
        structure_rng.sampleIndices(candidates.size(), background);
    for (std::size_t pick : picked) {
        const EventId id = candidates[pick];
        gen_[id].weight = spec_.backgroundWeight / 100.0 *
                          structure_rng.uniform(0.5, 1.0);
        gen_[id].shape = static_cast<EffectShape>(
            structure_rng.uniformInt(0, 3));
        gen_[id].sigma = 0.30; // strong enough to be learnable
    }

    // Deterministic per-event time profiles (the repeatable part of a
    // run). Weighted events get larger profiles so the IPC signal has
    // stable structure the model can learn.
    Rng profile_rng(spec_.structureSeed * 0x9e3779b97f4a7c15ULL + 17);
    for (EventId id = 0; id < catalog_.size(); ++id) {
        const double amp = gen_[id].weight != 0.0 ? 0.12 : 0.08;
        for (int h = 0; h < 3; ++h) {
            gen_[id].profileAmp[h] =
                amp / static_cast<double>(h + 1) *
                profile_rng.uniform(0.4, 1.0);
            gen_[id].profilePhase[h] =
                profile_rng.uniform(0.0, 6.283185307179586);
        }
    }

    // Interactions.
    pairTerms_.clear();
    for (const auto &inter : spec_.interactions) {
        pairTerms_.emplace_back(catalog_.idOfAbbrev(inter.first),
                                catalog_.idOfAbbrev(inter.second),
                                inter.weight / 100.0);
    }

    // Config couplings.
    couplings_.clear();
    for (const auto &coupling : spec_.couplings) {
        // Validate the param abbreviation eagerly.
        SparkParamCatalog::instance().byAbbrev(coupling.param);
        couplings_.push_back({coupling.param,
                              catalog_.idOfAbbrev(coupling.event),
                              coupling.eventShift,
                              coupling.ipcInteraction});
    }

    // Derived events: mispredictions track branches, retire slots track
    // retired uops, L2 misses track L2 reads, completed ITLB walks track
    // ITLB misses. Blending latents plants the correlations the paper
    // observes (a large BMP is caused by a large BRB).
    derived_.clear();
    auto derive = [this](const char *dst, const char *src, double blend) {
        derived_.emplace_back(catalog_.idOfAbbrev(dst),
                              catalog_.idOfAbbrev(src), blend);
    };
    derive("BMP", "BRB", 0.45);
    derive("URS", "URA", 0.50);
    derive("L2M", "L2R", 0.70);
    derive("IMT", "ITM", 0.80);
    derive("BRE", "BRB", 0.40);

    fixedInst_ = catalog_.idOf("INST_RETIRED.ANY");
    fixedCyc_ = catalog_.idOf("CPU_CLK_UNHALTED.THREAD");
    fixedRef_ = catalog_.idOf("CPU_CLK_UNHALTED.REF_TSC");
}

double
SyntheticBenchmark::durationFactor(const SparkConfig &config) const
{
    double log_factor = 0.0;
    for (const auto &coupling : spec_.couplings) {
        const double norm = config.normalized(coupling.param);
        log_factor += coupling.runtimeEffect * norm +
                      coupling.runtimeCurve * norm * norm;
    }
    return std::exp(log_factor);
}

TrueTrace
SyntheticBenchmark::generateTrace(Rng &rng, const SparkConfig &config) const
{
    return generate(rng, config, std::vector<bool>(catalog_.size(), true));
}

TrueTrace
SyntheticBenchmark::generateTrace(Rng &rng, const SparkConfig &config,
                                  const std::vector<EventId> &observed) const
{
    return generate(rng, config, neededEvents(observed));
}

std::vector<bool>
SyntheticBenchmark::neededEvents(const std::vector<EventId> &observed) const
{
    std::vector<bool> needed(catalog_.size(), false);
    for (const EventId id : observed) {
        CM_ASSERT(id < needed.size());
        needed[id] = true;
    }
    for (const EventId id : {fixedInst_, fixedCyc_, fixedRef_})
        needed[id] = true;
    for (EventId id = 0; id < gen_.size(); ++id) {
        if (gen_[id].weight != 0.0)
            needed[id] = true;
    }
    for (const auto &[a, b, weight] : pairTerms_)
        needed[a] = needed[b] = true;
    for (const auto &coupling : couplings_) {
        if (coupling.ipcInteraction != 0.0)
            needed[coupling.event] = true;
    }
    // Reverse order: a blend source that is itself blended earlier in
    // the list gets its own source pulled in too.
    for (auto it = derived_.rbegin(); it != derived_.rend(); ++it) {
        const auto &[dst, src, blend] = *it;
        if (needed[dst])
            needed[src] = true;
    }
    return needed;
}

TrueTrace
SyntheticBenchmark::generate(Rng &rng, const SparkConfig &config,
                             const std::vector<bool> &needed) const
{
    // Run length: config-driven factor times lognormal OS jitter.
    const double mean_n =
        spec_.meanIntervals * durationFactor(config) *
        std::exp(rng.gaussian(0.0, spec_.lengthJitter));
    const std::size_t n = static_cast<std::size_t>(
        std::clamp(mean_n, 80.0, 20000.0));

    TrueTrace trace(n, needed, spec_.intervalMs);

    // Phase index per interval.
    std::vector<std::size_t> phase_of(n, 0);
    {
        double total_fraction = 0.0;
        for (const auto &phase : spec_.phases)
            total_fraction += phase.fraction;
        CM_ASSERT(total_fraction > 0.0);
        std::size_t t = 0;
        for (std::size_t p = 0; p < spec_.phases.size(); ++p) {
            const double share =
                spec_.phases[p].fraction / total_fraction;
            std::size_t span = static_cast<std::size_t>(
                share * static_cast<double>(n) + 0.5);
            if (p + 1 == spec_.phases.size())
                span = n - t; // absorb rounding in the last phase
            for (std::size_t i = 0; i < span && t < n; ++i, ++t)
                phase_of[t] = p;
        }
        while (t < n)
            phase_of[t++] = spec_.phases.size() - 1;
    }

    // Per-event config shift.
    std::vector<double> config_shift(catalog_.size(), 0.0);
    for (const auto &coupling : couplings_)
        config_shift[coupling.event] +=
            coupling.eventShift * config.normalized(coupling.param);

    // Latent activity per needed event. An event nobody reads still
    // makes the same draws in the same order, so the run's random stream
    // does not depend on what was asked for; its row stays empty.
    std::vector<std::vector<double>> latent(catalog_.size());
    for (EventId id = 0; id < catalog_.size(); ++id) {
        const auto &info = catalog_.info(id);
        const EventGen &g = gen_[id];
        if (!needed[id]) {
            rng.discardGaussian();
            for (std::size_t t = 0; t < n; ++t) {
                rng.discardGaussian();
                if (g.spikeProb > 0.0 && rng.bernoulli(g.spikeProb))
                    rng.gumbel(0.0, g.spikeScale);
            }
            continue;
        }
        latent[id].resize(n);
        double x = rng.gaussian(0.0, g.sigma);
        for (std::size_t t = 0; t < n; ++t) {
            const double u =
                static_cast<double>(t) / static_cast<double>(n);
            x = g.rho * x + rng.gaussian(0.0, g.sigma);
            double value = x + profileValue(g, u) + config_shift[id];
            // Phase offset.
            const auto &phase = spec_.phases[phase_of[t]];
            auto it = phase.categoryScale.find(info.category);
            if (it != phase.categoryScale.end())
                value += std::log(it->second);
            // Long-tail spikes.
            if (g.spikeProb > 0.0 && rng.bernoulli(g.spikeProb))
                value += std::abs(rng.gumbel(0.0, g.spikeScale));
            // Cold-start boost for the frontend (empty icache/DSB).
            if (info.category == EventCategory::Frontend &&
                t < spec_.coldStartIntervals && spec_.coldStartBoost > 1.0) {
                const double decay =
                    1.0 - static_cast<double>(t) /
                              static_cast<double>(spec_.coldStartIntervals);
                value += std::log1p((spec_.coldStartBoost - 1.0) * decay);
            }
            latent[id][t] = value;
        }
    }

    // Derived-event blending (plants cross-event correlation).
    for (const auto &[dst, src, blend] : derived_) {
        if (!needed[dst])
            continue;
        for (std::size_t t = 0; t < n; ++t)
            latent[dst][t] =
                blend * latent[src][t] + (1.0 - blend) * latent[dst][t];
    }

    // Counts and IPC.
    for (std::size_t t = 0; t < n; ++t) {
        double log_ipc = std::log(spec_.baseIpc);
        for (EventId id = 0; id < catalog_.size(); ++id) {
            const EventGen &g = gen_[id];
            if (g.weight != 0.0)
                log_ipc -= g.weight * effectShapeValue(g.shape,
                                                       latent[id][t]);
        }
        for (const auto &[a, b, weight] : pairTerms_) {
            const double product =
                std::clamp(latent[a][t] * latent[b][t], -6.0, 6.0);
            log_ipc -= 0.35 * weight * product;
        }
        for (const auto &coupling : couplings_) {
            if (coupling.ipcInteraction == 0.0)
                continue;
            const double norm = config.normalized(coupling.param);
            log_ipc -= coupling.ipcInteraction * norm *
                       std::clamp(latent[coupling.event][t], -3.0, 3.0);
        }
        log_ipc += rng.gaussian(0.0, spec_.noiseSigma);
        const double ipc = std::clamp(std::exp(log_ipc), 0.05, 5.0);
        trace.setIpc(t, ipc);

        for (EventId id = 0; id < catalog_.size(); ++id) {
            if (catalog_.info(id).fixedCounter || !needed[id])
                continue;
            const double count =
                catalog_.info(id).baseRate * std::exp(latent[id][t]);
            trace.setCount(id, t, count);
        }

        // Fixed counters stay mutually consistent: IPC = INST / CYC.
        const double cycles = catalog_.info(fixedCyc_).baseRate *
                              std::exp(rng.gaussian(0.0, 0.01));
        trace.setCount(fixedCyc_, t, cycles);
        trace.setCount(fixedInst_, t, cycles * ipc);
        trace.setCount(fixedRef_, t,
                       cycles * std::exp(rng.gaussian(0.0, 0.002)));
    }

    return trace;
}

double
SyntheticBenchmark::profileValue(const EventGen &gen, double u)
{
    constexpr double two_pi = 6.283185307179586;
    double value = 0.0;
    for (int h = 0; h < 3; ++h) {
        value += gen.profileAmp[h] *
                 std::sin(two_pi * static_cast<double>(h + 1) * u +
                          gen.profilePhase[h]);
    }
    return value;
}

double
SyntheticBenchmark::plantedImportance(const std::string &abbrev) const
{
    const EventId id = catalog_.idOfAbbrev(abbrev);
    double total = 0.0;
    for (const auto &g : gen_)
        total += std::abs(g.weight);
    if (total <= 0.0)
        return 0.0;
    return 100.0 * std::abs(gen_[id].weight) / total;
}

std::vector<std::string>
SyntheticBenchmark::plantedRanking(std::size_t top_n) const
{
    std::vector<std::pair<double, EventId>> weighted;
    for (EventId id = 0; id < gen_.size(); ++id) {
        if (gen_[id].weight != 0.0)
            weighted.emplace_back(std::abs(gen_[id].weight), id);
    }
    std::sort(weighted.begin(), weighted.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });
    std::vector<std::string> out;
    for (std::size_t i = 0; i < std::min(top_n, weighted.size()); ++i)
        out.push_back(catalog_.info(weighted[i].second).abbrev);
    return out;
}

} // namespace cminer::workload
