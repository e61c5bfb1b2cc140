#include "service/line_server.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logger.hh"
#include "service/json.hh"
#include "service/transport.hh"

namespace vtsim::service {

namespace {

constexpr const char *kLogTag = "vtsimd";

std::string
oneLineError(const std::string &message)
{
    Json::Object o;
    o["ok"] = Json(false);
    o["error"] = Json(message);
    return Json(std::move(o)).dump();
}

} // namespace

LineServer::LineServer(std::string socket_path, Handler handler)
    : socketPath_(std::move(socket_path)), handler_(std::move(handler))
{}

LineServer::~LineServer()
{
    requestStop();
    serveJoin();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        std::error_code ec;
        std::filesystem::remove(socketPath_, ec);
    }
}

void
LineServer::start()
{
    listenFd_ = listenUnix(socketPath_);
}

void
LineServer::serve()
{
    pollfd pfd{listenFd_, POLLIN, 0};
    while (!stop_.load(std::memory_order_relaxed)) {
        pfd.revents = 0;
        const int rc = ::poll(&pfd, 1, 500);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            logging::error(kLogTag, "poll(): ", std::strerror(errno));
            break;
        }
        if (rc == 0 || !(pfd.revents & (POLLIN | POLLERR | POLLHUP)))
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (stop_.load(std::memory_order_relaxed))
                break;
            if (errno == EINTR || errno == ECONNABORTED ||
                errno == EAGAIN || errno == EWOULDBLOCK) {
                // Transient: the connection died between poll and
                // accept, or another thread raced us to it.
                continue;
            }
            if (errno == EMFILE || errno == ENFILE) {
                // Descriptor exhaustion is load, not protocol: back
                // off briefly so the kernel queue drains and an
                // in-flight connection can close, instead of spinning
                // through accept_error with no delay.
                logging::warn(kLogTag, "accept(): ", std::strerror(errno),
                              " (backing off 50ms)");
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
                continue;
            }
            logging::error(kLogTag, "accept(): ", std::strerror(errno));
            if (errorHook_)
                errorHook_(std::strerror(errno));
            break;
        }
        if (stop_.load(std::memory_order_relaxed)) {
            ::close(fd);
            break;
        }
        std::lock_guard<std::mutex> lk(connMu_);
        connFds_.insert(fd);
        connections_.emplace_back([this, fd] { serveConnection(fd); });
    }
    serveJoin();
}

void
LineServer::serveJoin()
{
    // Long-lived connections (pollers, idle clients) sit in recv()
    // indefinitely: shut their sockets down so every connection
    // thread unblocks, then join. In-flight replies still finish — a
    // handler mid-write is past the recv this interrupts. The join
    // happens outside connMu_: exiting threads take it to deregister
    // their fd.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lk(connMu_);
        for (const int fd : connFds_)
            ::shutdown(fd, SHUT_RDWR);
        threads.swap(connections_);
    }
    for (auto &t : threads) {
        if (t.joinable())
            t.join();
    }
}

void
LineServer::requestStop()
{
    stop_.store(true, std::memory_order_relaxed);
    // Unblocks accept()/poll(); shutdown(2) is async-signal-safe, so a
    // SIGTERM handler may call requestStop directly.
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
}

void
LineServer::serveConnection(int fd)
{
    std::string buffer;
    char chunk[4096];
    bool open = true;
    while (open) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break; // Disconnect (mid-request included): just drop it.
        buffer.append(chunk, std::size_t(n));
        std::size_t start = 0;
        for (;;) {
            const std::size_t nl = buffer.find('\n', start);
            if (nl == std::string::npos)
                break;
            std::string line = buffer.substr(start, nl - start);
            start = nl + 1;
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            bool keep = false;
            try {
                keep = dispatchLine(fd, line);
            } catch (const std::exception &e) {
                // A peer that vanished mid-reply (EPIPE from
                // sendLine) must not take the thread down; drop the
                // connection and keep serving the rest.
                logging::debug(kLogTag, "connection dropped: ",
                               e.what());
            }
            if (!keep) {
                open = false;
                break;
            }
        }
        buffer.erase(0, start);
        if (buffer.size() > kMaxLineBytes) {
            // An unterminated line already over the cap: reject it
            // without waiting for (or buffering) the rest.
            try {
                sendLine(fd, oneLineError(
                                 "request exceeds the 64 KiB line "
                                 "limit"));
            } catch (const std::exception &) {
            }
            break;
        }
    }
    {
        std::lock_guard<std::mutex> lk(connMu_);
        connFds_.erase(fd);
    }
    ::close(fd);
}

bool
LineServer::dispatchLine(int fd, const std::string &line)
{
    if (line.size() > kMaxLineBytes) {
        sendLine(fd,
                 oneLineError("request exceeds the 64 KiB line limit"));
        return false;
    }
    return handler_(fd, line);
}

} // namespace vtsim::service
