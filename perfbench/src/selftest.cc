/**
 * @file
 * Self-tests of the benchmark's own code: order statistics (including
 * the "ten samples beyond" rule and Python-compatible quartiles), the
 * open-loop schedule and its lag accounting, and the socket client's
 * frame round trip and its counting of unanswered requests as failed.
 * Run with `perfbench selftest`; run.py runs them before every
 * measurement.
 */

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "loadgen.h"
#include "serve/protocol.h"

namespace perfbench {

namespace {

int failures = 0;

void
expect(bool ok, const char *what, int line)
{
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "selftest FAILED (line %d): %s\n", line, what);
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

void
testStats()
{
    EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
    EXPECT(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
    EXPECT(median({}) == 0.0);

    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    EXPECT(nearestRank(hundred, 0.5) == 50.0);
    EXPECT(nearestRank(hundred, 0.99) == 99.0);
    EXPECT(nearestRank(hundred, 1.0) == 100.0);
    EXPECT(nearestRank(hundred, 0.001) == 1.0);

    // The "at least ten samples beyond" rule: p99 needs n >= 1000.
    EXPECT(samplesBeyond(1000, 0.99) == 10);
    EXPECT(samplesBeyond(999, 0.99) == 9);
    std::vector<double> thousand(1000);
    for (std::size_t i = 0; i < thousand.size(); ++i)
        thousand[i] = static_cast<double>(1000 - i);
    const auto p99 = supportedPercentile(thousand, 0.99);
    EXPECT(p99.has_value() && p99->value == 990.0 && p99->beyond == 10 &&
           p99->samples == 1000);
    thousand.pop_back();
    EXPECT(!supportedPercentile(thousand, 0.99).has_value());
    // 500 samples: p99 has 5 beyond, p95 has 25 -> p95 is reported.
    std::vector<double> five_hundred(thousand.begin(),
                                     thousand.begin() + 500);
    const auto tail =
        highestSupportedPercentile(five_hundred, {0.5, 0.99, 0.95});
    EXPECT(tail.has_value() && tail->q == 0.95 && tail->beyond == 25);
    EXPECT(!highestSupportedPercentile({1, 2, 3}, {0.5, 0.99}).has_value());

    // Quartiles agree with Python's statistics.quantiles(n=4).
    std::vector<double> ten;
    for (int i = 10; i >= 1; --i)
        ten.push_back(i);
    const auto q = quartiles(ten);
    EXPECT(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25));
    const auto q3 = quartiles({3.0, 1.0, 2.0});
    EXPECT(near(q3[0], 1.0) && near(q3[1], 2.0) && near(q3[2], 3.0));
    const auto q2 = quartiles({5.0, 1.0});
    EXPECT(near(q2[0], 0.0) && near(q2[1], 3.0) && near(q2[2], 6.0));
    EXPECT(near(relativeSpread(ten), (8.25 - 2.75) / 5.5));
}

void
testSchedule()
{
    const auto a = poissonSchedule(2000.0, 5000.0, 7);
    const auto b = poissonSchedule(2000.0, 5000.0, 7);
    const auto c = poissonSchedule(2000.0, 5000.0, 8);
    EXPECT(a == b);
    EXPECT(a != c);
    EXPECT(!a.empty() && a.back() < 5000.0 && a.front() >= 0.0);
    bool ascending = true;
    for (std::size_t i = 1; i < a.size(); ++i)
        ascending = ascending && a[i] >= a[i - 1];
    EXPECT(ascending);
    // 10000 expected arrivals: within 5% (about 5 standard deviations).
    EXPECT(std::fabs(static_cast<double>(a.size()) - 10000.0) < 500.0);

    RequestOutcome o;
    o.dueMs = 10.0;
    o.issuedMs = 12.5;
    o.answeredMs = 15.0;
    EXPECT(o.answered() && o.lagMs() == 2.5 && o.latencyMs() == 5.0);
    RequestOutcome never;
    EXPECT(!never.answered());
}

/**
 * A fake server on the far end of a socketpair: answers every request
 * whose id is even with a predict response echoing the id, and drops
 * the odd ones.
 */
void
fakeServer(int fd, std::size_t expected, std::size_t &decoded_ok)
{
    std::string in;
    std::size_t seen = 0;
    char buf[4096];
    while (seen < expected) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            return;
        in.append(buf, static_cast<std::size_t>(n));
        std::size_t pos = 0;
        std::string payload;
        bool eof = false;
        while (seen < expected &&
               cminer::serve::nextFrame(in, pos, payload, eof).ok() &&
               !eof) {
            ++seen;
            auto request = cminer::serve::decodeRequest(payload);
            if (!request.ok())
                continue;
            ++decoded_ok;
            const auto id = cminer::serve::requestId(request.value());
            if (id % 2 != 0)
                continue;
            cminer::serve::Response response;
            response.type = cminer::serve::MessageType::Predict;
            response.id = id;
            response.predictions = {static_cast<double>(id)};
            std::string frame;
            cminer::serve::appendFrame(
                frame, cminer::serve::encodeResponse(response));
            ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
        }
        // Keep only the unconsumed tail (a partial frame).
        in.erase(0, pos);
    }
}

void
testClient()
{
    int pair[2];
    EXPECT(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) == 0);
    constexpr std::size_t n = 20;
    std::size_t decoded_ok = 0;
    std::thread server(fakeServer, pair[1], n, std::ref(decoded_ok));

    cminer::serve::PredictRequest request;
    request.model = "m";
    request.events = {"A", "B"};
    request.rowCount = 1;
    request.values = {1.0, 2.0};
    const std::string payload = cminer::serve::encodeRequest(request);

    std::vector<double> due;
    for (std::size_t i = 0; i < n; ++i)
        due.push_back(static_cast<double>(i));
    std::size_t hooks = 0;
    bool ids_echoed = true;
    PhaseSummary summary;
    std::vector<RequestOutcome> outcomes;
    {
        OpenLoopClient client({pair[0]});
        outcomes = client.run(
            due,
            [&](std::size_t i) -> const std::string & {
                // Stall the generator on request 0: the requests due
                // behind it must show the lag and be timed from due.
                if (i == 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(30));
                return payload;
            },
            200.0,
            [&](std::size_t i, const cminer::serve::Response &r) {
                ++hooks;
                ids_echoed = ids_echoed && r.predictions.size() == 1 &&
                             static_cast<std::uint64_t>(
                                 r.predictions[0]) == r.id &&
                             r.id == i + 1;
            },
            summary);
    }
    server.join();
    ::close(pair[1]);

    EXPECT(decoded_ok == n); // every patched frame decodes server-side
    // Ids are 1-based: even ids (odd indices) are answered.
    EXPECT(summary.attempted == n);
    EXPECT(summary.ok == n / 2);
    EXPECT(summary.unanswered == n / 2);
    EXPECT(summary.refused == 0);
    EXPECT(summary.failed() == n / 2);
    EXPECT(hooks == n / 2);
    EXPECT(ids_echoed);
    EXPECT(outcomes[1].lagMs() >= 25.0);
    EXPECT(outcomes[1].answered() &&
           outcomes[1].latencyMs() >= outcomes[1].lagMs());
    EXPECT(!outcomes[0].answered());
}

} // namespace

int
runSelfTests()
{
    testStats();
    testSchedule();
    testClient();
    if (failures == 0)
        std::printf("selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}

} // namespace perfbench
