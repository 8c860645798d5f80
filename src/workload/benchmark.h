/**
 * @file
 * Synthetic cloud benchmarks with planted ground truth.
 *
 * Each benchmark generates TrueTraces: per-interval activity for the 229
 * catalog events (or the subset a measurement reads) plus true IPC.
 * The generative model is
 *
 *   x_e(t)   = AR(1) latent activity + phase offsets + config shifts
 *              (+ GEV spikes for long-tailed events, + cold-start boost
 *               for the frontend at the beginning of a run)
 *   count_e  = baseRate_e * exp(x_e)
 *   log IPC  = log(baseIpc) - sum_i w_i * g_i(x_i)            (effects)
 *              - sum_(a,b) w_ab * x_a * x_b                   (interactions)
 *              - sum_(p,e) w_pe * norm(p) * x_e     (config interactions)
 *              + noise
 *
 * Because the weights w are planted, the benches can check that the
 * importance ranker recovers the paper's per-benchmark rankings and the
 * interaction ranker recovers the planted pairs — ground truth the real
 * CloudSuite/HiBench runs never provided.
 */

#ifndef CMINER_WORKLOAD_BENCHMARK_H
#define CMINER_WORKLOAD_BENCHMARK_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pmu/event.h"
#include "pmu/trace.h"
#include "util/rng.h"
#include "workload/spark_config.h"

namespace cminer::workload {

/** Nonlinear response shape linking event activity to IPC. */
enum class EffectShape
{
    Linear,    ///< g(x) = x
    Quadratic, ///< g(x) = x + x^2 / 2
    Softplus,  ///< g(x) = log(1 + e^x) - log 2
    Cubic,     ///< g(x) = x + x^3 / 4
};

/** One event's planted contribution to IPC. */
struct EventEffect
{
    std::string abbrev;  ///< catalog abbreviation ("ISF")
    double weight = 0.0; ///< importance-like weight (percent scale)
    EffectShape shape = EffectShape::Linear;
};

/** A planted pairwise interaction. */
struct InteractionEffect
{
    std::string first;
    std::string second;
    double weight = 0.0; ///< interaction weight (percent scale)
};

/** Coupling between a Spark parameter and an event. */
struct ConfigCoupling
{
    std::string param;          ///< Spark abbreviation ("bbs")
    std::string event;          ///< event abbreviation ("ORO")
    double eventShift = 0.0;    ///< latent shift per unit normalized value
    double ipcInteraction = 0.0;///< weight of the norm(p) * x_e IPC term
    double runtimeEffect = 0.0; ///< log-runtime slope per unit norm value
    double runtimeCurve = 0.0;  ///< log-runtime curvature (norm^2 term)
};

/** One execution phase: a stretch of the run with scaled activity. */
struct PhaseSpec
{
    std::string name;
    double fraction = 1.0; ///< share of the run's intervals
    /** Per-category activity multiplier (unlisted categories are 1.0). */
    std::map<cminer::pmu::EventCategory, double> categoryScale;
};

/** Full specification of a synthetic benchmark. */
struct BenchmarkSpec
{
    std::string name;
    std::string suite;          ///< "hibench" or "cloudsuite"
    double baseIpc = 1.2;
    double meanIntervals = 450; ///< average run length in intervals
    double lengthJitter = 0.03; ///< lognormal sigma of the run length
    double intervalMs = 10.0;
    double noiseSigma = 0.04;   ///< log-IPC observation noise
    double coldStartBoost = 3.5;///< frontend boost at run start
    std::size_t coldStartIntervals = 30;
    /**
     * Number of non-top events that receive small background weights
     * (what makes the EIR curve turn back up once real-but-minor signal
     * starts being pruned).
     */
    std::size_t backgroundEvents = 60;
    double backgroundWeight = 1.25; ///< mean background weight (percent)
    std::uint64_t structureSeed = 1;///< seeds the background structure
    std::vector<PhaseSpec> phases;
    std::vector<EventEffect> effects;
    std::vector<InteractionEffect> interactions;
    std::vector<ConfigCoupling> couplings;
};

/**
 * A runnable synthetic benchmark.
 */
class SyntheticBenchmark
{
  public:
    /**
     * @param spec planted structure
     * @param catalog event catalog (lifetime must cover the benchmark's)
     */
    SyntheticBenchmark(BenchmarkSpec spec,
                       const cminer::pmu::EventCatalog &catalog);

    /** Benchmark name ("wordcount"). */
    const std::string &name() const { return spec_.name; }

    /** Suite name ("hibench" / "cloudsuite"). */
    const std::string &suite() const { return spec_.suite; }

    /** Full planted specification. */
    const BenchmarkSpec &spec() const { return spec_; }

    /** Catalog this benchmark resolves abbreviations against. */
    const cminer::pmu::EventCatalog &catalog() const { return catalog_; }

    /**
     * Generate one run's ground-truth trace.
     *
     * Run lengths differ between calls (OS nondeterminism); all planted
     * structure is deterministic given the rng state.
     *
     * @param rng randomness source for this run
     * @param config Spark configuration (defaults when omitted)
     */
    cminer::pmu::TrueTrace
    generateTrace(cminer::util::Rng &rng,
                  const SparkConfig &config = SparkConfig()) const;

    /**
     * Generate one run's trace carrying only what a measurement of
     * @p observed can read: those rows, the fixed counters, and every
     * event the IPC model reads (see neededEvents()). The other events
     * draw the same random values and are dropped, so the carried rows,
     * the IPC row and the rng's next state are bit-identical to the
     * full trace's.
     */
    cminer::pmu::TrueTrace
    generateTrace(cminer::util::Rng &rng, const SparkConfig &config,
                  const std::vector<cminer::pmu::EventId> &observed) const;

    /**
     * Deterministic part of the runtime model: the factor the given
     * configuration applies to the mean run length.
     */
    double durationFactor(const SparkConfig &config) const;

    /**
     * Planted importance share of an event (percent of the total planted
     * weight; 0 for unweighted events). Ground truth for the tests.
     */
    double plantedImportance(const std::string &abbrev) const;

    /** Events with planted weights, ordered by descending weight. */
    std::vector<std::string> plantedRanking(std::size_t top_n) const;

  private:
    /** Per-event resolved generation parameters. */
    struct EventGen
    {
        double sigma = 0.20;     ///< AR(1) innovation scale (run noise)
        double rho = 0.65;       ///< AR(1) persistence
        double spikeProb = 0.0;  ///< per-interval long-tail spike chance
        double spikeScale = 0.5; ///< Gumbel scale of spikes
        double weight = 0.0;     ///< IPC effect weight (fraction, not %)
        EffectShape shape = EffectShape::Linear;
        /**
         * Deterministic time profile: the program does the same work in
         * every run, so most of an event's trajectory repeats run to
         * run. Three harmonics over normalized run time.
         */
        double profileAmp[3] = {0.0, 0.0, 0.0};
        double profilePhase[3] = {0.0, 0.0, 0.0};
    };

    /** Evaluate the deterministic profile at normalized time u. */
    static double profileValue(const EventGen &gen, double u);

    /**
     * Closure of rows a measurement of @p observed reads: the observed
     * events, the fixed counters, every IPC-weighted, interaction-pair
     * and IPC-coupled event, and the blend source of each needed
     * derived event.
     */
    std::vector<bool>
    neededEvents(const std::vector<cminer::pmu::EventId> &observed) const;

    /** The one generator body: simulates the events flagged in @p needed. */
    cminer::pmu::TrueTrace generate(cminer::util::Rng &rng,
                                    const SparkConfig &config,
                                    const std::vector<bool> &needed) const;

    void resolveStructure();

    BenchmarkSpec spec_;
    const cminer::pmu::EventCatalog &catalog_;
    std::vector<EventGen> gen_;  ///< indexed by EventId
    /** Resolved interactions: (event a, event b, weight fraction). */
    std::vector<std::tuple<cminer::pmu::EventId, cminer::pmu::EventId,
                           double>> pairTerms_;
    /** Resolved couplings, with event ids. */
    struct ResolvedCoupling
    {
        std::string param;
        cminer::pmu::EventId event;
        double eventShift;
        double ipcInteraction;
    };
    std::vector<ResolvedCoupling> couplings_;
    /** Derived-event blending: (derived, source, blend weight). */
    std::vector<std::tuple<cminer::pmu::EventId, cminer::pmu::EventId,
                           double>> derived_;
    cminer::pmu::EventId fixedInst_;
    cminer::pmu::EventId fixedCyc_;
    cminer::pmu::EventId fixedRef_;
};

/** Shape function evaluation (exposed for tests). */
double effectShapeValue(EffectShape shape, double x);

} // namespace cminer::workload

#endif // CMINER_WORKLOAD_BENCHMARK_H
