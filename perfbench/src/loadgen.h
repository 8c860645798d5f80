/**
 * @file
 * Open-loop load generator for `counterminer serve --socket`.
 *
 * Arrivals follow a seeded Poisson process (independent users, so the
 * loop is open: a slow server does not slow the offered load and its
 * queue can grow). One thread multiplexes every connection with
 * ppoll(); it sleeps until the next due time or socket event and never
 * busy-spins. Each request is timed from its *scheduled* send time, so
 * a stall charges its wait to every request queued behind it, and the
 * generator's own lateness (issue time - due time) is reported so a
 * run whose generator fell behind can be told apart from a slow server.
 */

#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace perfbench {

/**
 * Due times (ms from the start of the phase) of a seeded Poisson
 * process at `rate_per_s` over [0, duration_ms). The same seed always
 * yields the same schedule.
 */
std::vector<double> poissonSchedule(double rate_per_s, double duration_ms,
                                    std::uint64_t seed);

/** What happened to one scheduled request. */
struct RequestOutcome
{
    double dueMs = 0.0;
    /** When the generator queued the frame for sending; -1 = never. */
    double issuedMs = -1.0;
    /** When the response frame was parsed; -1 = never answered. */
    double answeredMs = -1.0;
    /** Answered with StatusCode::Ok. */
    bool ok = false;

    bool answered() const { return answeredMs >= 0.0; }
    /** Latency from the scheduled send time. */
    double latencyMs() const { return answeredMs - dueMs; }
    /** Generator lateness. */
    double lagMs() const { return issuedMs - dueMs; }
};

/** Totals over one phase. */
struct PhaseSummary
{
    std::size_t attempted = 0;
    std::size_t ok = 0;
    /** Answered with a non-Ok code (shed, deadline, error). */
    std::size_t refused = 0;
    /** Never answered before the drain window closed. */
    std::size_t unanswered = 0;

    /** Every request not answered Ok counts as failed. */
    std::size_t failed() const { return attempted - ok; }
};

/**
 * Drives pre-encoded request payloads over connected stream sockets.
 * Frames use the serve protocol's u32 length prefix; the request id
 * (bytes 1..8 of every request payload) is patched per send so
 * responses can be matched to their request.
 */
class OpenLoopClient
{
  public:
    /** Takes ownership of the connected fds (closed on destruction). */
    explicit OpenLoopClient(std::vector<int> fds);
    ~OpenLoopClient();

    OpenLoopClient(const OpenLoopClient &) = delete;
    OpenLoopClient &operator=(const OpenLoopClient &) = delete;

    /** Called for every decoded response with its request index. */
    using ResponseHook =
        std::function<void(std::size_t, const cminer::serve::Response &)>;

    /**
     * Send request i (payload(i), id patched) at due[i] on connection
     * i % connections, collect responses until all are answered or
     * drain_ms after the last due time, and report each outcome.
     */
    std::vector<RequestOutcome>
    run(const std::vector<double> &due,
        const std::function<const std::string &(std::size_t)> &payload,
        double drain_ms, const ResponseHook &on_response,
        PhaseSummary &summary);

    /** Connections that hung up or failed mid-phase. */
    std::size_t deadConnections() const;

  private:
    struct Connection
    {
        int fd = -1;
        bool dead = false;
        std::string out;
        std::size_t outPos = 0;
        std::string in;
    };

    void flush(Connection &conn);
    /** Read what is available; returns complete frame payloads. */
    std::vector<std::string> drainInput(Connection &conn);

    std::vector<Connection> conns_;
    std::uint64_t nextId_ = 1;
};

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H
