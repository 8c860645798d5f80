#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include "util/rng.h"

namespace perfbench {

namespace serve = cminer::serve;

std::vector<double>
poissonSchedule(double rate_per_s, double duration_ms, std::uint64_t seed)
{
    std::vector<double> due;
    cminer::util::Rng rng(seed);
    const double rate_per_ms = rate_per_s / 1000.0;
    double t = rng.exponential(rate_per_ms);
    while (t < duration_ms) {
        due.push_back(t);
        t += rng.exponential(rate_per_ms);
    }
    return due;
}

OpenLoopClient::OpenLoopClient(std::vector<int> fds)
{
    for (const int fd : fds) {
        Connection conn;
        conn.fd = fd;
        conns_.push_back(std::move(conn));
    }
}

OpenLoopClient::~OpenLoopClient()
{
    for (auto &conn : conns_)
        if (conn.fd >= 0)
            ::close(conn.fd);
}

std::size_t
OpenLoopClient::deadConnections() const
{
    std::size_t dead = 0;
    for (const auto &conn : conns_)
        dead += conn.dead ? 1 : 0;
    return dead;
}

void
OpenLoopClient::flush(Connection &conn)
{
    while (!conn.dead && conn.outPos < conn.out.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.out.data() + conn.outPos,
                   conn.out.size() - conn.outPos,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
            conn.outPos += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
        } else {
            conn.dead = true;
        }
    }
    if (conn.outPos == conn.out.size()) {
        conn.out.clear();
        conn.outPos = 0;
    }
}

std::vector<std::string>
OpenLoopClient::drainInput(Connection &conn)
{
    char buf[1 << 16];
    while (!conn.dead) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) {
            conn.in.append(buf, static_cast<std::size_t>(n));
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
        } else {
            conn.dead = true; // orderly hangup or error
        }
    }
    std::vector<std::string> frames;
    std::size_t pos = 0;
    while (conn.in.size() - pos >= 4) {
        std::uint32_t len = 0;
        for (int b = 3; b >= 0; --b)
            len = (len << 8) |
                  static_cast<unsigned char>(conn.in[pos + b]);
        if (len > serve::max_frame_bytes) {
            conn.dead = true;
            break;
        }
        if (conn.in.size() - pos - 4 < len)
            break;
        frames.emplace_back(conn.in, pos + 4, len);
        pos += 4 + len;
    }
    conn.in.erase(0, pos);
    return frames;
}

std::vector<RequestOutcome>
OpenLoopClient::run(
    const std::vector<double> &due,
    const std::function<const std::string &(std::size_t)> &payload,
    double drain_ms, const ResponseHook &on_response,
    PhaseSummary &summary)
{
    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    const auto elapsed_ms = [&] {
        return std::chrono::duration<double, std::milli>(clock::now() -
                                                         start)
            .count();
    };

    const std::size_t n = due.size();
    std::vector<RequestOutcome> outcomes(n);
    for (std::size_t i = 0; i < n; ++i)
        outcomes[i].dueMs = due[i];
    const std::uint64_t first_id = nextId_;
    nextId_ += n;

    std::size_t issued = 0;
    std::size_t answered = 0;
    const double end_ms = (n > 0 ? due.back() : 0.0) + drain_ms;
    std::vector<pollfd> fds(conns_.size());

    while (answered < n) {
        double now = elapsed_ms();
        while (issued < n && due[issued] <= now) {
            auto &conn = conns_[issued % conns_.size()];
            std::string frame = payload(issued);
            const std::uint64_t id = first_id + issued;
            for (int b = 0; b < 8; ++b)
                frame[1 + b] = static_cast<char>((id >> (8 * b)) & 0xff);
            const std::uint32_t len =
                static_cast<std::uint32_t>(frame.size());
            for (int b = 0; b < 4; ++b)
                conn.out.push_back(
                    static_cast<char>((len >> (8 * b)) & 0xff));
            conn.out += frame;
            outcomes[issued].issuedMs = now;
            ++issued;
            flush(conn);
            now = elapsed_ms();
        }
        if (now >= end_ms)
            break;

        bool any_alive = false;
        for (std::size_t c = 0; c < conns_.size(); ++c) {
            const auto &conn = conns_[c];
            fds[c].fd = conn.dead ? -1 : conn.fd;
            fds[c].events = static_cast<short>(
                POLLIN | (conn.out.size() > conn.outPos ? POLLOUT : 0));
            fds[c].revents = 0;
            any_alive = any_alive || !conn.dead;
        }
        if (!any_alive && issued == n)
            break;
        const double wake_ms = issued < n ? due[issued] : end_ms;
        const double wait_ms = std::max(0.0, wake_ms - now);
        timespec timeout{};
        timeout.tv_sec = static_cast<time_t>(wait_ms / 1000.0);
        timeout.tv_nsec = static_cast<long>(
            std::fmod(wait_ms, 1000.0) * 1e6);
        const int ready =
            ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
        if (ready <= 0)
            continue; // timeout (next due time) or EINTR

        for (std::size_t c = 0; c < conns_.size(); ++c) {
            auto &conn = conns_[c];
            if (fds[c].revents & POLLOUT)
                flush(conn);
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const auto frames = drainInput(conn);
            const double at = elapsed_ms();
            for (const auto &frame : frames) {
                auto decoded = serve::decodeResponse(frame);
                if (!decoded.ok())
                    continue;
                const auto &response = decoded.value();
                if (response.id < first_id ||
                    response.id >= first_id + n)
                    continue;
                const std::size_t index = response.id - first_id;
                if (outcomes[index].answered())
                    continue;
                outcomes[index].answeredMs = at;
                outcomes[index].ok =
                    response.code == cminer::util::StatusCode::Ok;
                ++answered;
                if (on_response)
                    on_response(index, response);
            }
        }
    }

    summary.attempted += n;
    for (const auto &outcome : outcomes) {
        if (!outcome.answered())
            ++summary.unanswered;
        else if (outcome.ok)
            ++summary.ok;
        else
            ++summary.refused;
    }
    return outcomes;
}

} // namespace perfbench
